import hashlib
import json
import re

import numpy as np
import pytest

from nilmoduli import algebra as al
from nilmoduli import cli
from nilmoduli.errors import InvalidForm


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_describe_h9(capsys):
    code, out, _ = run_cli(capsys, "describe", "h9")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "nilmoduli/1"
    assert rep["outputs"]["nilpotency_step"] == 3
    assert rep["outputs"]["derivation_dimension"] == 15
    assert rep["outputs"]["component_count"] == 8


def test_describe_abelian_string(capsys):
    code, out, _ = run_cli(capsys, "describe", "(0,0,0,0,0,0)")
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["nilpotency_step"] == 1
    assert rep["outputs"]["brackets"] == []


def test_describe_h6(capsys):
    code, out, _ = run_cli(capsys, "describe", "h6")
    rep = json.loads(out)
    assert rep["outputs"]["derivation_dimension"] == 19


def test_describe_facts_built_once_per_builtin():
    facts = al.memo(al.builtin("h5"), cli._describe_facts)
    assert al.memo(al.get_algebra("h5"), cli._describe_facts) is facts
    assert isinstance(facts[0], tuple)
    # a copy with the built-in's label keeps its own facts, equal to the built-in's
    copy = al.LieAlgebra(c=al.builtin("h5").c.copy(), label="h5")
    own = al.memo(copy, cli._describe_facts)
    assert own == facts and own is not facts and al.memo(copy, cli._describe_facts) is own
    # each parse is a new object, which builds its own
    salamon = "(0,0,0,0,13+42,14+23)"
    again = al.memo(al.get_algebra(salamon), cli._describe_facts)
    assert again == facts and again is not al.memo(al.get_algebra(salamon), cli._describe_facts)


def test_describe_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "describe", "(0,0,0,0,0,99)")
    assert code == 2
    assert "parse" in err.lower() or "range" in err.lower()


@pytest.mark.parametrize("argv", [
    ("describe", "(0,0,0,0,12+34,15+24)"),
    ("canonicalize", "--algebra", "(0,0,0,0,12+34,15+24)", "--metric",
     json.dumps({"matrix": np.eye(6).tolist()})),
    ("hermitian", "--algebra", "(0,0,0,0,12+34,15+24)", "--form", '{"tag": "h6", "a": 1, "b": 4}'),
], ids=["describe", "canonicalize", "hermitian"])
def test_a_bracket_that_is_no_lie_algebra_exits_2(capsys, argv):
    # each pair is triangular, but d(e^15 + e^24) = -e^134: Jacobi fails
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("parse error: '(0,0,0,0,12+34,15+24)' is no Lie algebra: "
                   "its Jacobi residual is 1\n")


@pytest.mark.parametrize("name", sorted(al.BUILTIN_SALAMON))
def test_describe_of_a_builtins_salamon_string_counts_its_components(capsys, name):
    # one recognizer: the string names the built-in, so describe counts its components
    reports = []
    for spec in (name, al.BUILTIN_SALAMON[name]):
        code, out, _ = run_cli(capsys, "describe", spec)
        assert code == 0
        reports.append(json.loads(out)["outputs"])
    assert reports[1].pop("label") == "custom"
    assert reports[0].pop("label") == name
    assert reports[0] == reports[1]
    assert "component_count" in reports[1]


def test_canonicalize_identity(capsys):
    metric = {"algebra": "h6", "matrix": np.eye(6).tolist()}
    code, out, _ = run_cli(capsys, "canonicalize", "--metric", json.dumps(metric))
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["form"] == {"tag": "h6", "a": 1.0, "b": 1.0}


def test_canonicalize_h6_swap(capsys):
    metric = {"algebra": "h6", "matrix": np.diag([1, 1, 1, 1, 3.0, 2.0]).tolist()}
    code, out, _ = run_cli(capsys, "canonicalize", "--metric", json.dumps(metric))
    rep = json.loads(out)
    assert rep["outputs"]["form"]["a"] == pytest.approx(2.0)
    assert rep["outputs"]["form"]["b"] == pytest.approx(3.0)


def test_canonicalize_orbit_round_trip(capsys):
    from nilmoduli import automorphisms as au
    from nilmoduli import moduli as mo

    form = mo.H4Form(0.6, 1.1, 0.2, 1.7)
    g = mo.pullback_metric(mo.realize(form), au.random_automorphism("h4", 3))
    metric = {"algebra": "h4", "matrix": g.matrix.tolist()}
    code, out, _ = run_cli(capsys, "canonicalize", "--metric", json.dumps(metric))
    rep = json.loads(out)
    assert rep["outputs"]["form"]["r"] == pytest.approx(0.6, abs=1e-8)
    assert rep["outputs"]["witness"]["residual"] <= 1e-8


def test_canonicalize_not_spd_exit(capsys):
    metric = {"algebra": "h6", "matrix": np.diag([1, 1, 1, 1, 1, -1.0]).tolist()}
    code, _, err = run_cli(capsys, "canonicalize", "--metric", json.dumps(metric))
    assert code == 3


def test_canonicalize_input_file(tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"algebra": "h5", "matrix": np.eye(6).tolist()}))
    code, out, _ = run_cli(capsys, "canonicalize", "--input", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["form"]["tag"] == "h5"


def _h6_metric_with(cells):
    """An h6 metric object: the identity with ``cells`` {(i, j): value} set."""
    rows = np.eye(6).tolist()
    for (i, j), value in cells.items():
        rows[i][j] = value
    return json.dumps({"algebra": "h6", "matrix": rows})


# float() takes "1" and true, which made this metric the identity
NON_NUMBER_METRIC = _h6_metric_with({(0, 0): "1", (1, 1): True})
NON_NUMBER_ERROR = ("input error: metric entries must be numbers, "
                    "got matrix[0][0]='1', matrix[1][1]=True\n")


def test_canonicalize_input_file_entries_must_be_numbers(tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text(NON_NUMBER_METRIC)
    assert run_cli(capsys, "canonicalize", "--input", str(path)) == (2, "", NON_NUMBER_ERROR)


@pytest.mark.parametrize(
    "argv, needle, names_schema",
    [
        ((), "no metric given", True),
        (("--input", "no-such-dir/metric.json"), "cannot read --input", False),
        (("--metric", json.dumps(np.eye(6).tolist())), 'without "matrix"', True),
        (("--metric", json.dumps({"matrix": np.eye(6).tolist()})), "no algebra given", True),
        (("--metric", json.dumps({"algebra": "h6", "matrix": np.eye(2).tolist()})), "6x6", False),
        (("--metric", '{"algebra": "h6", "matrix": [[NaN, 0, 0, 0, 0, 0]'
                      + ", [0, 1, 0, 0, 0, 0]" * 5 + "]}"), "non-finite", False),
        (("--metric", json.dumps({"algebra": "h7", "matrix": np.eye(6).tolist()})),
         "parse error: unknown algebra 'h7': give a builtin id (h2, h4, h5, h6, h9, h9hat)",
         False),
        (("--metric", NON_NUMBER_METRIC), "got matrix[0][0]='1', matrix[1][1]=True", False),
        # below the diagonal too, although Metric reads the upper triangle
        (("--metric", _h6_metric_with({(5, 4): None})), "numbers, got matrix[5][4]=None", False),
        (("--metric", _h6_metric_with({(5, 4): {}})), "numbers, got matrix[5][4]={}", False),
        (("--metric", _h6_metric_with({(0, 0): [1]})), "numbers, got matrix[0][0]=[1]", False),
    ],
)
def test_canonicalize_input_errors_exit_2(capsys, argv, needle, names_schema):
    code, out, err = run_cli(capsys, "canonicalize", *argv)
    assert code == 2
    assert out == ""
    assert needle in err
    assert ('{"algebra": "h5", "matrix":' in err) == names_schema


def test_canonicalize_reports_the_enforced_certificate_bound(capsys):
    # Metric reads the upper triangle, so the 50 below the diagonal is not
    # part of the metric the witness is checked against
    g = np.diag([1.0, 1, 1, 1, 2, 3])
    g[5, 4] = 50.0
    metric = {"algebra": "h6", "matrix": g.tolist()}
    code, out, _ = run_cli(capsys, "canonicalize", "--metric", json.dumps(metric))
    assert code == 0
    assert json.loads(out)["outputs"]["certificate_bound"] == 1e-8 * 3.0


def test_isometry_command(capsys):
    code, out, _ = run_cli(
        capsys, "isometry", "--algebra", "h9hat",
        "--form", '{"A":1.0,"B":1.0,"C":1.0,"D":0.0,"E":0.0,"F":0.0}',
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["descriptor"]["name"] == "Z2 x Z2 x Z2"
    assert rep["outputs"]["descriptor"]["finite_order"] == 8
    assert rep["outputs"]["verification"]["passed"]


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "isometry on H6Form(1e11, 1e11) exits 1: continuous_dimension_matches_null_space reads "
    "null-space dim 8 where 1 is expected (the nullity cutoff is not scaled to the metric)"))
def test_isometry_h6_at_large_scale_exit_0(capsys):
    code, out, _ = run_cli(capsys, "isometry", "--algebra", "h6",
                           "--form", '{"a": 1e11, "b": 1e11}')
    rep = json.loads(out)
    assert rep["outputs"]["descriptor"]["continuous_dim"] == 1
    assert code == 0, rep["outputs"]["verification"]


def test_isometry_invalid_form_exit(capsys):
    code, _, err = run_cli(capsys, "isometry", "--algebra", "h6", "--form",
                           '{"a": 3.0, "b": 1.0}')
    assert code == 2


@pytest.mark.parametrize("command", ["isometry", "hermitian"])
@pytest.mark.parametrize(
    "form, needle",
    [
        ("[1, 2]", "must be an object"),
        ("null", "must be an object"),
        ('{"a": 1}', "h6 form needs a, b; missing b"),
        ('{"a": null, "b": 2}', "must be numbers"),
    ],
)
def test_form_input_errors_exit_2(capsys, command, form, needle):
    code, out, err = run_cli(capsys, command, "--algebra", "h6", "--form", form)
    assert code == 2
    assert out == ""
    assert needle in err


@pytest.mark.parametrize("command", ["isometry", "hermitian"])
@pytest.mark.parametrize(
    "form, needle",
    [
        pytest.param('{"a": true, "b": 2}', "a=True", id="bool"),
        pytest.param('{"a": 1, "b": "1.5"}', "b='1.5'", id="numeric-string"),
    ],
)
def test_form_values_must_be_json_numbers(capsys, command, form, needle):
    code, out, err = run_cli(capsys, command, "--algebra", "h6", "--form", form)
    assert code == 2
    assert out == ""
    assert "must be numbers" in err and needle in err


def test_hermitian_sphere_case(capsys):
    code, out, _ = run_cli(
        capsys, "hermitian", "--algebra", "h5",
        "--form", '{"r":1.0,"s":1.0,"E":1.0,"F":0.3,"G":2.0}',
    )
    rep = json.loads(out)
    assert rep["outputs"]["solutions"]["J2"]["kind"] == "sphere"


def test_hermitian_near_degenerate_h5_form(capsys):
    # max|J^2 + I| is 2.1e-11 here, and max|J| about 700: the certificate's
    # bounds are relative to J's entries, so the four structures return
    code, out, err = run_cli(
        capsys, "hermitian", "--algebra", "h5",
        "--form", '{"r":0.5,"s":0.3,"E":1.0,"F":0.999999,"G":1.0}',
    )
    assert (code, err) == (0, "")
    sols = json.loads(out)["outputs"]["solutions"]
    assert [len(sols[b]["solutions"]) for b in ("J1", "J2")] == [2, 2]


def test_hermitian_h4_r1(capsys):
    code, out, _ = run_cli(
        capsys, "hermitian", "--algebra", "h4",
        "--form", '{"r":1.0,"a":1.0,"b":0.4,"c":2.0}',
    )
    rep = json.loads(out)
    tri = sorted(s["a"] for s in rep["outputs"]["solutions"]["J2"]["solutions"])
    assert tri == [-1.0, 1.0]


def test_hermitian_search_none(capsys):
    code, out, _ = run_cli(
        capsys, "hermitian", "--algebra", "h9hat",
        "--form", '{"A":1.0,"B":2.0,"C":1.0,"D":0.0,"E":0.0,"F":0.0}',
        "--search", "--budget", "16",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["search"]["found"] is False
    assert rep["outputs"]["search"]["residual"] > 1e-3


def test_hermitian_search_h9_label(capsys):
    # --algebra h9 names h9hat, whose basis realize(form) is in
    code, out, _ = run_cli(
        capsys, "hermitian", "--algebra", "h9",
        "--form", '{"A":1.0,"B":1.0,"C":1.0,"D":0.0,"E":0.0,"F":0.0}',
        "--search", "--budget", "3",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["outputs"]["search"]["found"] is True
    # g = I: starts 0 and 1 stop on a plateau (start 1 near the critical
    # point of cost 4), start 2 succeeds
    assert rep["outputs"]["search"]["starts_used"] == 3


def test_hermitian_search_h9_label_reads_hat_basis(capsys):
    # A = B = 1.3 is not invariant under the h9 <-> h9hat permutation, so
    # this fails unless the search reads the metric in the hat basis
    reports = []
    for label in ("h9", "h9hat"):
        code, out, _ = run_cli(
            capsys, "hermitian", "--algebra", label,
            "--form", '{"A":1.3,"B":1.3,"C":1,"D":0,"E":0,"F":0}',
            "--search", "--budget", "4",
        )
        assert code == 0
        reports.append(json.loads(out)["outputs"]["search"])
    assert reports[0]["found"] is True
    assert reports[0]["starts_used"] == 1
    assert reports[0] == reports[1]


def test_hermitian_search_empty_budget_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "hermitian", "--algebra", "h9hat",
        "--form", '{"A":1.0,"B":2.0,"C":1.0,"D":0.0,"E":0.0,"F":0.0}',
        "--search", "--budget", "0",
    )
    assert code == 2
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (("hermitian", "--algebra", "h9hat",
          "--form", '{"A":1.0,"B":2.0,"C":1.0,"D":0.0,"E":0.0,"F":0.0}',
          "--search", "--budget", "0"), "budget"),
        (("isometry", "--algebra", "h6",
          "--form", '{"tag": "h5", "r": 0.5, "s": 0.3, "E": 1.0, "F": 0.1, "G": 2.0}'),
         "algebra tags differ"),
        # the paper's e-basis h9 string: its tensor is not h9hat's, so it names no built-in
        (("canonicalize", "--metric",
          json.dumps({"algebra": "(0,0,0,0,12,14+25)", "matrix": np.eye(6).tolist()})),
         "built-ins only"),
        (("canonicalize", "--metric",
          json.dumps({"algebra": "(0,0,0,0,12,14+25)", "matrix": np.eye(6).tolist()})),
         "not '(0,0,0,0,12,14+25)'"),
        (("hermitian", "--algebra", "h5",
          "--form", '{"tag": "h4", "r": 1, "a": 1, "b": 0.3, "c": 2}'),
         "algebra tags differ: 'h4' vs 'h5'"),
        (("hermitian", "--algebra", "h6",
          "--form", '{"tag": "h2", "a": 0.2, "b": 0.6, "E": 1.0, "F": 0.3, "G": 2.0}'),
         "algebra tags differ: 'h2' vs 'h6'"),
        (("hermitian", "--algebra", "(0,0,0,12,13,23)", "--form", '{"tag": "h6", "a": 1, "b": 4}'),
         "algebra tags differ: 'h6' vs '(0,0,0,12,13,23)'"),
    ],
    ids=["budget-0", "form-of-another-algebra", "salamon-tag",
         "salamon-tag-named-as-given", "hermitian-h5-h4-form", "hermitian-h6-h2-form",
         "hermitian-salamon-h6-form"],
)
def test_exit_2_errors_share_the_input_error_prefix(capsys, argv, needle):
    # InvalidParams, AlgebraMismatch and Unsupported print like every other
    # input error
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")
    assert needle in err


@pytest.mark.parametrize("tag", ["[1]", '{"a": 1}'])
def test_a_form_tag_that_is_no_string_exits_2(capsys, tag):
    code, out, err = run_cli(capsys, "isometry", "--algebra", "h6",
                             "--form", f'{{"tag": {tag}, "a": 1, "b": 4}}')
    assert code == 2
    assert out == ""
    assert err.startswith("input error: unknown form tag ")


@pytest.mark.parametrize("command", ["isometry", "hermitian"])
def test_malformed_salamon_algebra_is_a_parse_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--algebra", "(0,0,0,0,0,99)",
                             "--form", '{"tag": "h6", "a": 1, "b": 4}')
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")


def _h2_and_its_salamon_string(capsys, command, form):
    """The reports of ``command`` on ``form`` under --algebra h2 and under
    h2's Salamon string, each with its --format text output under "text"."""
    reports = []
    for algebra in ("h2", "(0,0,0,0,12,34)"):
        code, out, _ = run_cli(capsys, command, "--algebra", algebra, "--form", form)
        assert code == 0
        reports.append(json.loads(out))
        code, text, _ = run_cli(capsys, "--format", "text", command,
                                "--algebra", algebra, "--form", form)
        assert code == 0
        reports[-1]["text"] = text
    assert reports[0]["outputs"]  # not the empty outputs of an unmatched algebra
    for key in ("outputs", "passed", "text"):
        assert reports[0][key] == reports[1][key]
    return reports


@pytest.mark.parametrize("command", ["isometry", "hermitian"])
def test_salamon_string_of_a_builtin_gives_the_builtins_outputs(capsys, command):
    # one match rule: h2's Salamon string names h2, so a form tagged h2 is its form
    form = '{"tag": "h2", "a": 0.2, "b": 0.6, "E": 1.0, "F": 0.3, "G": 2.0}'
    _h2_and_its_salamon_string(capsys, command, form)


@pytest.mark.parametrize("command", ["isometry", "hermitian"])
def test_untagged_form_under_a_builtins_salamon_string_is_that_builtins_form(capsys, command):
    form = '{"a": 0.2, "b": 0.6, "E": 1, "F": 0.3, "G": 2}'
    reports = _h2_and_its_salamon_string(capsys, command, form)
    assert reports[1]["inputs"]["form"]["tag"] == "h2"


def test_canonicalize_reads_a_salamon_string_as_the_builtin_it_names(capsys):
    # the rule of an untagged form: h6's Salamon string names h6
    g = np.diag([1.0, 1, 1, 1, 1, 2]).tolist()
    salamon = "(0,0,0,0,12,13)"
    reports = []
    for argv in (("--algebra", salamon, "--metric", json.dumps({"matrix": g})),
                 ("--metric", json.dumps({"algebra": salamon, "matrix": g})),
                 ("--metric", json.dumps({"algebra": "h6", "matrix": g}))):
        code, out, err = run_cli(capsys, "canonicalize", *argv)
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    assert [r["inputs"]["algebra"] for r in reports] == [salamon, salamon, "h6"]
    assert reports[0]["outputs"] == reports[1]["outputs"] == reports[2]["outputs"]
    assert reports[0]["outputs"]["form"] == {"tag": "h6", "a": 1.0, "b": 2.0}
    code, out, _ = run_cli(capsys, "isometry", "--algebra", salamon, "--form", '{"a": 1, "b": 2}')
    assert code == 0
    assert json.loads(out)["inputs"]["form"] == {"tag": "h6", "a": 1.0, "b": 2.0}


@pytest.mark.parametrize("command", ["isometry", "hermitian"])
def test_untagged_form_under_a_salamon_string_of_no_builtin_keeps_the_tag_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--algebra", "(0,0,0,0,12,13+24)",
                             "--form", '{"a": 0.2, "b": 0.6, "E": 1, "F": 0.3, "G": 2}')
    assert code == 2
    assert out == ""
    assert err == "input error: unknown form tag '(0,0,0,0,12,13+24)'\n"


@pytest.mark.parametrize(
    "algebra, form, lines",
    [
        pytest.param("h5", '{"r":1,"s":1,"E":1,"F":0.3,"G":2}', [
            "J1: (a,b,c) = (+0.663449, +0.199725, +0.721072)",
            "J1: (a,b,c) = (+0.663449, -0.199725, -0.721072)",
            "J2: sphere (every (a,b,c) on S^2)",
        ], id="h5-sphere"),
        pytest.param("h6", '{"a":1,"b":4}', [
            "J1+: (a,b,c) = (+0.500000, +0.866025, +0.000000)",
            "J1-: (a,b,c) = (+0.500000, -0.866025, +0.000000)",
            "J2+: (a,b,c) = (+0.500000, +0.866025, +0.000000)",
            "J2-: (a,b,c) = (+0.500000, -0.866025, +0.000000)",
        ], id="h6"),
        pytest.param("h2", '{"a":0.2,"b":0.6,"E":1.5,"F":0.3,"G":1.5}', [
            "J: (a,b,c) = (+0.959095, -0.183503, -0.215552) abelian=False",
            "J: (a,b,c) = (-0.959095, -0.183503, +0.215552) abelian=False",
        ], id="h2-a-below-b"),
        pytest.param("h2", '{"a":0.4,"b":0.4,"E":1.0,"F":0.2,"G":2.0}', [
            "J: (a,b,c) = (+1.000000, +0.000000, +0.000000) abelian=True",
            "J: (a,b,c) = (-1.000000, +0.000000, +0.000000) abelian=True",
        ], id="h2-a-equals-b"),
        pytest.param("h9hat", '{"A":1,"B":2,"C":1,"D":0,"E":0,"F":0}', [
            "J0: open (no closed form at this form; --search runs the oracle)",
        ], id="h9-open"),
    ],
)
def test_hermitian_text_lines(capsys, algebra, form, lines):
    code, out, _ = run_cli(capsys, "--format", "text", "hermitian",
                           "--algebra", algebra, "--form", form)
    assert code == 0
    assert out == "\n".join(lines) + "\n"


def test_hermitian_h2_near_a_equals_b_gives_two_structures(capsys):
    # a and b 1.7e-9 apart: phi = B alpha - A beta lost most of its digits
    form = ('{"a": 0.14324591977957185, "b": 0.1432459214404514, "E": 11.952916461351078, '
            '"F": 12.24324688132229, "G": 13.121518166016457}')
    code, out, err = run_cli(capsys, "--format", "text", "hermitian", "--algebra", "h2",
                             "--form", form)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 2 and all(line.startswith("J: ") for line in lines)


def test_tables_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "tables")
    code2, out2, _ = run_cli(capsys, "tables")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    rep = json.loads(out1)
    assert len(rep["outputs"]["isometry"]["h5"]) == 10
    assert len(rep["outputs"]["isometry"]["h2"]) == 8
    assert len(rep["outputs"]["h6_hermitian"]) == 3


TABLES_SHA256 = "bf2956cb27a8f82e4b2974b1cadfd41a40690e66c05a15d0f9dcf59d46b068a0"


def test_tables_bytes_pinned(capsys):
    # the closed-form tables are a fixed artefact: any change to their
    # bytes, across versions as well as between runs, fails here
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_SHA256


def test_verify_suites_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "algebra", "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    # 121 checks for each of the five distinct built-ins ("h9" names h9hat)
    assert rep["outputs"]["algebra"]["checked"] == 605


def test_verify_hermitian_suite_count(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "hermitian", "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    # each returned structure is a check: h2's two per form count as two
    assert rep["outputs"]["hermitian"]["checked"] == 2800
    assert rep["passed"] is True


def test_verify_hermitian_suite_reports_a_solver_failure(capsys, monkeypatch):
    # a solver that raises is a failed check of the suite (exit 1), not an
    # input error; the other solvers still run on the same forms
    def fails(form):
        raise InvalidForm(f"h6 check fails at {form.a:.3f}")

    monkeypatch.setattr(cli.hm, "h6_hermitian_solutions", fails)
    code, out, err = run_cli(capsys, "verify", "--suite", "hermitian", "--seed", "0")
    assert code == 1
    assert err == ""
    suite = json.loads(out)["outputs"]["hermitian"]
    assert suite["passed"] is False
    assert suite["checked"] == 2800 - 200 * 4  # the four h6 structures of each form
    assert len(suite["failures"]) == 10  # the first ten of 200
    name, detail = suite["failures"][0]
    assert name == "h6_solver[#0]"
    assert "InvalidForm" in detail and "h6 check fails" in detail

    # the detail is one repr of the exception, not a repr of a repr
    def boom(form):
        raise InvalidForm("boom")

    monkeypatch.setattr(cli.hm, "h6_hermitian_solutions", boom)
    code, out, _ = run_cli(capsys, "verify", "--suite", "hermitian", "--seed", "0")
    assert code == 1
    assert json.loads(out)["outputs"]["hermitian"]["failures"][0] == ["h6_solver[#0]",
                                                                      "InvalidForm('boom')"]


def test_verify_hermitian_suite_fails_on_h2_at_a_zero_bound(capsys, monkeypatch):
    # h2 misses its certificate like any solver: every h2 call raises, and
    # each raise is a failed check; the other algebras' forms are the same.
    # Each h2 residual's scale is zeroed, and with it its bound
    measure = cli.hm._measure
    monkeypatch.setattr(cli.hm, "_measure", lambda label, js, g: [
        (acs, res, {k: 0.0 if label == "h2" else sc for k, sc in scales.items()})
        for acs, res, scales in measure(label, js, g)])
    code, out, err = run_cli(capsys, "verify", "--suite", "hermitian", "--seed", "0")
    assert code == 1
    assert err == ""
    suite = json.loads(out)["outputs"]["hermitian"]
    assert suite["passed"] is False
    assert suite["checked"] == 2800 - 200 * 2  # the two h2 structures of each form
    assert [name for name, _detail in suite["failures"]] == [f"h2_solver[#{i}]" for i in range(10)]
    assert all(detail.startswith("InvalidForm('h2 J: ") for _name, detail in suite["failures"])


def test_verify_moduli_seeded(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "moduli", "--seed", "7")
    assert code == 0
    rep = json.loads(out)
    assert rep["inputs"]["seed"] == 7
    assert rep["outputs"]["moduli"]["checked"] == 500


def test_verify_seed_defaults_to_zero(capsys, monkeypatch):
    # the seed comes from --seed alone: the environment does not set it
    monkeypatch.setenv("NILMODULI_SEED", "7")
    code, out, _ = run_cli(capsys, "verify", "--suite", "algebra")
    assert code == 0
    unseeded = json.loads(out)
    assert unseeded["inputs"]["seed"] == 0
    code, out, _ = run_cli(capsys, "verify", "--suite", "algebra", "--seed", "0")
    assert json.loads(out)["outputs"] == unseeded["outputs"]


def test_verify_detects_corrupted_build():
    # a moved structure constant kills the Jacobi gate -> nonzero exit
    h9 = al.builtin("h9")
    c = h9.c.copy()
    c[5, 3, 4] += 1.0
    c[5, 4, 3] -= 1.0
    corrupted = al.LieAlgebra(c=c, label="h9")
    checked, failures = cli.verify_suite_algebra(0, algebras=[corrupted])
    assert failures


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "describe", "h2")
    assert code == 0
    assert "nilpotency step: 2" in out


@pytest.mark.parametrize("algebra", ["h9", "h9hat"])
def test_hermitian_h9_is_the_open_set(capsys, algebra):
    code, out, _ = run_cli(capsys, "hermitian", "--algebra", algebra, "--form",
                           '{"A":1,"B":2,"C":1,"D":0,"E":0,"F":0}')
    assert code == 0
    assert json.loads(out)["outputs"] == {
        "solutions": {"J0": {"branch": "J0", "kind": "open", "includes_negatives": True}}}


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


EVERY_COMMAND = [
    ["describe", "h5"],
    ["--format", "text", "describe", "h2"],
    ["canonicalize", "--metric",
     json.dumps({"algebra": "h6", "matrix": np.diag([1, 1, 1, 1, 3.0, 2.0]).tolist()})],
    ["isometry", "--algebra", "h5", "--form", '{"r":0.6,"s":0.6,"E":1.0,"F":0.1,"G":2.0}'],
    ["hermitian", "--algebra", "h4", "--form", '{"r":1.0,"a":1.0,"b":0.4,"c":2.0}'],
    ["tables"],
    ["verify", "--suite", "algebra", "--seed", "0"],
]


def _stdout_without_wall_time(capsys):
    return re.sub(r'"wall_time_s": [^,}]+', '"wall_time_s": null', capsys.readouterr().out)


def test_main_reuses_parser_after_errors(capsys, monkeypatch):
    # a parse error and --help exit through the shared parser and leave it
    # as it was: every command then prints what a freshly built parser gives
    with pytest.raises(SystemExit) as exc:
        cli.main(["isometry"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    shared = []
    for argv in EVERY_COMMAND:
        assert cli.main(argv) == 0
        shared.append(_stdout_without_wall_time(capsys))
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for argv, out in zip(EVERY_COMMAND, shared):
        assert cli.main(argv) == 0
        assert _stdout_without_wall_time(capsys) == out


def test_shrink_failure_helper():
    # check(x) passes for x <= 0.5 on the segment from 0 to 1; the shrunk
    # failing point should sit just above the pass/fail boundary
    base, bad = np.zeros(1), np.ones(1)
    shrunk = cli._shrink_failure(lambda x: float(x[0]) <= 0.5, base, bad)
    assert 0.5 < float(shrunk[0]) < 0.51
