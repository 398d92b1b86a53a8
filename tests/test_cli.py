"""Command line interface: outputs, exit codes, round-trips."""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import rep_matrices_from_json

from coxrep.cli import main
from coxrep.cyclotomic import field_context
from coxrep.io import (
    InputError,
    params_from_json,
    scalar_from_json,
    scalar_to_json,
)
from coxrep.construction import geometric_representation
from coxrep.graph import spanning_tree, validate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out.strip() else None), err


def fraction_matrix(doc):
    return [[Fraction(cell["num"][0] if cell["num"] else 0, cell["den"])
             for cell in row] for row in doc]


def test_build_b3_json(capsys):
    code, doc, _ = run_json(capsys, "build", "--diagram", "b3", "--root", "s2")
    assert code == 0
    assert fraction_matrix(doc["cartan"]) == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert doc["conductor"] == 24
    assert doc["root"] == "s2"


def test_build_h3_discriminant(capsys):
    code, doc, _ = run_json(capsys, "build", "--diagram", "h3", "--root", "s2")
    assert code == 0
    ctx = field_context(doc["conductor"])
    disc = scalar_from_json(ctx, {k: doc["discriminant"][k] for k in ("num", "den")})
    alpha = 2 + ctx.cos_element(1, 5)
    assert disc == 6 - 2 * alpha


def test_build_bc3_zero_discriminant(capsys):
    code, doc, _ = run_json(capsys, "build", "--diagram", "bc3", "--root", "s1")
    assert code == 0
    assert doc["discriminant"]["num"] == [0]
    assert fraction_matrix(doc["cartan"]) == [[2, -2, 0], [-1, 2, -2], [0, -1, 2]]


def test_generator_round_trip(capsys):
    code, doc, _ = run_json(capsys, "build", "--diagram", "h3", "--root", "s3")
    assert code == 0
    parsed = rep_matrices_from_json(doc)
    rep = geometric_representation(validate([[1, 3, 2], [3, 1, 5], [2, 5, 1]]), "s3")
    for s, label in enumerate(("s1", "s2", "s3")):
        assert [list(r) for r in parsed[label]] == \
            [list(r) for r in rep.generators[s]]


def test_verify_pass_and_exit_codes(capsys):
    code, _, _ = run(capsys, "verify", "--diagram", "h3", "--root", "s2")
    assert code == 0
    code, _, err = run(capsys, "build", "--diagram", "nosuch", "--root", "s1")
    assert code == 2 and "no such diagram" in err


def test_verify_param_validation(capsys, tmp_path):
    # a different admissible root index is a legal parameter system and the
    # construction stays sound; an inadmissible index is an input error
    legal = tmp_path / "params.json"
    legal.write_text(json.dumps({"alpha": {"s2-s3": 2}}))
    code, out, _ = run(capsys, "verify", "--diagram", "h3", "--root", "s2",
                       "--params", str(legal))
    assert code == 0
    inadmissible = tmp_path / "params2.json"
    inadmissible.write_text(json.dumps({"alpha": {"s2-s3": 3}}))
    code, _, err = run(capsys, "verify", "--diagram", "h3", "--root", "s2",
                       "--params", str(inadmissible))
    assert code == 2


def test_verify_detects_unbalanced_triangle(capsys, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"chords": {"s2-s3": 5}}))
    code, out, _ = run(capsys, "verify", "--diagram", "affine_triangle",
                       "--root", "s1", "--params", str(params))
    assert code == 0  # any nonzero chord scalar still yields a good morphism


def test_form_b3_root_s3(capsys):
    code, doc, _ = run_json(capsys, "form", "--diagram", "b3", "--root", "s3")
    assert code == 0 and doc["exists"] and doc["dimension"] == 1
    gram = fraction_matrix(doc["gram"])
    displayed = [[2, -1, 0], [-1, 2, -1], [0, -1, 1]]
    ratios = {Fraction(gram[i][j], displayed[i][j])
              for i in range(3) for j in range(3) if displayed[i][j]}
    assert len(ratios) == 1
    assert doc["diag_cartan_factorization"] is True


def test_form_checks_the_gram_matrix_once(capsys, monkeypatch):
    # the dimension's witness and invariance_verified share one exact
    # intertwining check of the Gram matrix
    from coxrep import linalg

    calls = []
    real = linalg.intertwines

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "intertwines", spy)
    code, doc, _ = run_json(capsys, "form", "--diagram", "k4", "--root", "s1")
    assert code == 0 and doc["exists"] and doc["dimension"] == 1
    assert doc["invariance_verified"] is True
    assert len(calls) == 1


def test_form_unbalanced_chord_obstruction(capsys, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"chords": {"s2-s3": 7}}))
    code, doc, _ = run_json(capsys, "form", "--diagram", "affine_triangle",
                            "--root", "s1", "--params", str(params))
    assert code == 0
    assert doc["exists"] is False and doc["dimension"] == 0
    assert doc["obstruction"] == "chord_balance"


def test_form_h3_nonidentity_theta(capsys):
    code, doc, _ = run_json(capsys, "form", "--diagram", "h3", "--root", "s3",
                            "--theta", "7")
    assert code == 0
    assert doc["exists"] is False and doc["dimension"] == 0
    code, doc, _ = run_json(capsys, "form", "--diagram", "h3", "--root", "s3",
                            "--theta", "11")
    assert code == 0
    assert doc["exists"] is True and doc["dimension"] == 1


def test_equiv_b3_roots(capsys):
    code, doc, _ = run_json(capsys, "equiv", "--diagram", "b3",
                            "--root", "s2", "--root2", "s3")
    assert code == 0
    assert doc["verdict"] == "equivalent"
    assert fraction_matrix(doc["intertwiner"]) == [[2, 0, 0], [0, 2, 0], [0, 0, 1]]
    assert doc["intertwiner_integral"] is True
    assert doc["inverse_integral"] is False


def test_equiv_h3_alpha_choices_distinct(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"alpha": {"s2-s3": 2}}))
    code, doc, _ = run_json(capsys, "equiv", "--diagram", "h3", "--root", "s2",
                            "--root2", "s2", "--params2", str(params))
    assert code == 0
    assert doc["verdict"] == "distinct"
    assert doc["separating_word"] == ["s2", "s3"]


def test_equiv_identical_jobs(capsys):
    code, doc, _ = run_json(capsys, "equiv", "--diagram", "h3", "--root", "s2")
    assert code == 0
    assert doc["verdict"] == "equivalent"
    g = fraction_matrix(doc["intertwiner"])
    assert g == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_dual_h3_and_bc3(capsys):
    code, doc, _ = run_json(capsys, "dual", "--diagram", "h3", "--root", "s2")
    assert code == 0 and doc["degenerate"] is False
    assert doc["adapted_row_rank"] == 3
    assert doc["chord_coefficients_match"] is True or "chords" not in doc
    code, doc, _ = run_json(capsys, "dual", "--diagram", "bc3", "--root", "s1")
    assert code == 0 and doc["degenerate"] is True
    assert doc["adapted_row_rank"] == 2


def test_dual_rank_one(capsys, tmp_path):
    path = tmp_path / "r1.json"
    path.write_text(json.dumps({"rank": 1, "m": [[1]]}))
    code, doc, _ = run_json(capsys, "dual", "--diagram", str(path), "--root", "s1")
    assert code == 0 and doc["degenerate"] is False
    assert fraction_matrix(doc["dual_generators"]["s1"]) == [[-1]]


def test_tree_override(capsys, tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"edges": [["s1", "s2"], ["s2", "s3"]]}))
    code, doc, _ = run_json(capsys, "build", "--diagram", "affine_triangle",
                            "--root", "s1", "--tree", str(tree))
    assert code == 0
    assert sorted(map(tuple, doc["tree_edges"])) == [("s1", "s2"), ("s2", "s3")]
    assert doc["chords"] == [["s1", "s3"]]


def test_invalid_diagram_file_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": [[1, 7], [6, 1]]}))
    code, _, err = run(capsys, "build", "--diagram", str(path), "--root", "s1")
    assert code == 2


def test_scalar_json_round_trip():
    ctx = field_context(30)
    x = ctx.from_coeffs([Fraction(1, 2), 0, Fraction(-3, 7), 1])
    doc = scalar_to_json(x)
    assert scalar_from_json(ctx, {"num": doc["num"], "den": doc["den"]}) == x
    assert scalar_from_json(ctx, "3/4") == ctx.from_rational(Fraction(3, 4))
    assert scalar_from_json(ctx, 5) == 5
    assert scalar_from_json(ctx, [0, 1]) == ctx.generator
    with pytest.raises(InputError):
        scalar_from_json(ctx, {"den": 2})


def test_params_rejects_non_chord(tmp_path):
    tri = validate([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    tree = spanning_tree(tri, 0)
    with pytest.raises(InputError):
        params_from_json(tree, {"chords": {"s1-s2": 1}})


def test_equiv_root2_defaults_to_first_job_params(capsys, tmp_path):
    # without --tree2/--params2 the second job reuses --tree/--params, so a
    # root change alone gives an equivalent pair
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"alpha": {"s2-s3": 2}}))
    code, doc, _ = run_json(capsys, "equiv", "--diagram", "h3", "--root", "s2",
                            "--root2", "s3", "--params", str(params))
    assert code == 0
    assert doc["verdict"] == "equivalent"


def test_equiv_root2_defaults_to_first_job_tree(capsys, tmp_path):
    # the first job's --params may name a chord of its tree that is a tree
    # edge of the breadth-first tree from --root2; the second job re-roots
    # the first job's tree instead
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"chords": {"s2-s3": 5}}))
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"edges": [["s1", "s2"], ["s1", "s3"]]}))
    argv = ["equiv", "--diagram", "affine_triangle", "--root", "s1",
            "--root2", "s2", "--params", str(params)]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("verdict: equivalent\n")
    assert run(capsys, *argv, "--tree", str(tree)) == (code, out, err)


@pytest.mark.parametrize("edges, message", [
    ([["s1", "s9"], ["s2", "s3"]], "no vertex labelled 's9'"),
    ([[0, 1], [1, 7]], "bad vertex 7"),
    ([[0, 1], [1, -1]], "bad vertex -1"),
    ([[0, 1], [1, True]], "bad vertex True"),
    ([[0, 1], "s2"], "bad edge"),
    ({"s1": "s2"}, "needs an \"edges\" list"),
])
def test_bad_tree_file_exit_2(capsys, tmp_path, edges, message):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"edges": edges}))
    code, out, err = run(capsys, "build", "--diagram", "b3", "--root", "s1",
                         "--tree", str(tree))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err


def test_chord_scalar_zero_denominator_exit_2(capsys, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"chords": {"s2-s3": {"num": [1], "den": 0}}}))
    code, _, err = run(capsys, "form", "--diagram", "affine_triangle",
                       "--root", "s1", "--params", str(params))
    assert code == 2
    assert err.count("\n") == 1 and "zero denominator" in err


@pytest.mark.parametrize("value", ["0", "2", "-5"])
def test_verify_max_order_below_three_exit_2(capsys, value):
    code, out, err = run(capsys, "verify", "--diagram", "h3", "--root", "s2",
                         "--max-order", value)
    assert code == 2 and out == ""
    assert err == "error: --max-order must be at least 3\n"
    code, _, _ = run(capsys, "verify", "--diagram", "h3", "--root", "s2",
                     "--max-order", "5")
    assert code == 0


@pytest.mark.parametrize("command", ["build", "form", "equiv", "dual"])
def test_max_order_belongs_to_verify_only(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--diagram", "h3", "--root", "s2", "--max-order", "60"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --max-order" in capsys.readouterr().err


def test_verify_analyzes_each_pair_once(capsys, monkeypatch):
    import coxrep.analysis as analysis

    calls = []
    original = analysis.classify_pair

    def counting(c_rs, c_sr, max_order):
        calls.append(max_order)
        return original(c_rs, c_sr, max_order)

    monkeypatch.setattr(analysis, "classify_pair", counting)
    code, doc, _ = run_json(capsys, "verify", "--diagram", "b3", "--root", "s2",
                            "--max-order", "12")
    assert code == 0 and calls == [12, 12, 12]
    assert [r["char_poly_closed_form"] for r in doc["char_poly_checks"]] == \
        [True, True, True]


def test_verify_order_mismatch_exits_4(capsys, monkeypatch):
    import coxrep.analysis as analysis

    monkeypatch.setattr(analysis, "_matrix_order_check", lambda *args: False)
    code, out, err = run(capsys, "verify", "--diagram", "b3", "--root", "s2")
    assert code == 4 and out == ""
    assert err == ("internal consistency error: classified order 3 but "
                   "matrix powers disagree\n")


def _rank_two_diagram(tmp_path, label):
    path = tmp_path / f"i2_{label}.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, label], [label, 1]]}))
    return str(path)


def test_verify_label_61_without_cap_and_with_cap(capsys, tmp_path):
    diagram = _rank_two_diagram(tmp_path, 61)
    code, doc, _ = run_json(capsys, "verify", "--diagram", diagram, "--root", "s1")
    assert code == 0 and doc["passed"] is True
    assert doc["good_morphism"]["checks"][1]["computed"] == 61
    code, doc, _ = run_json(capsys, "verify", "--diagram", diagram, "--root", "s1",
                            "--max-order", "60")
    assert code == 3 and doc["good_morphism"]["checks"][1]["computed"] is None


def test_verify_and_form_report_the_route(capsys):
    h3 = validate([[1, 3, 2], [3, 1, 5], [2, 5, 1]])
    route = f"mod {geometric_representation(h3, 's2').ctx.modular_image(0)[0]}"
    code, doc, _ = run_json(capsys, "verify", "--diagram", "h3", "--root", "s2")
    assert code == 0 and doc["commutant_dimension"] == 1
    assert doc["commutant_route"] == route
    code, out, _ = run(capsys, "verify", "--diagram", "h3", "--root", "s2")
    assert f"commutant dimension: 1\ncommutant route: {route}\n" in out
    code, doc, _ = run_json(capsys, "form", "--diagram", "h3", "--root", "s2")
    assert code == 0 and doc["dimension"] == 1 and doc["dimension_route"] == route
    code, out, _ = run(capsys, "form", "--diagram", "h3", "--root", "s2")
    assert f"(dimension 1)\ndimension route: {route}\n" in out


def test_form_criterion_against_the_dimension_still_exits_4(capsys, monkeypatch):
    # a criterion that wrongly denies the form leaves the dimension bounds
    # apart; exact elimination finds the form and the CLI reports the clash
    import coxrep.cli as cli
    import coxrep.forms as forms

    def denies(rep, theta):
        return forms.FormExistence(False, "chord_balance", (0, 1))

    monkeypatch.setattr(cli, "form_exists", denies)
    monkeypatch.setattr(forms, "form_exists", denies)
    code, out, err = run(capsys, "form", "--diagram", "b3", "--root", "s2")
    assert code == 4 and out == ""
    assert err == "error: form criterion and nullspace dimension disagree\n"


def test_one_form_job_runs_the_criterion_once(capsys, monkeypatch):
    import coxrep.cli as cli
    import coxrep.forms as forms

    calls = []
    real = forms.form_exists

    def counted(rep, theta):
        calls.append(theta.index)
        return real(rep, theta)

    monkeypatch.setattr(cli, "form_exists", counted)
    monkeypatch.setattr(forms, "form_exists", counted)
    code, doc, _ = run_json(capsys, "form", "--diagram", "h3", "--root", "s2")
    assert code == 0 and doc["exists"] is True and doc["invariance_verified"] is True
    assert calls == [1]


TRIANGLE_1584 = {"rank": 3, "m": [[1, 11, 9], [11, 1, 8], [9, 8, 1]]}


@pytest.mark.slow
@pytest.mark.parametrize("command", ["verify", "form", "dual"])
def test_triangle_of_conductor_1584(capsys, tmp_path, command):
    # labels 11, 8 and 9: conductor 1584, field degree 240
    diagram = tmp_path / "triangle.json"
    diagram.write_text(json.dumps(TRIANGLE_1584))
    code, doc, err = run_json(capsys, command, "--diagram", str(diagram), "--root", "s1")
    assert code == 0 and err == ""
    if command == "verify":
        assert doc["passed"] is True
    elif command == "form":
        assert doc["exists"] is True and doc["invariance_verified"] is True
    else:
        assert doc["degenerate"] is False and doc["chord_coefficients_match"] is True


def _file(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def assert_input_error(result, message):
    code, out, err = result
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("diagram, document, message", [
    ("a3", {"alpha": [1]}, '"alpha" and "chords" must be objects'),
    ("a3", {"chords": "abc"}, '"alpha" and "chords" must be objects'),
    ("a3", {"alpha": {"s1-s2": True}}, "alpha index for 's1-s2' must be an integer"),
    ("a3", {"alpha": {"s1-s2": "2"}}, "alpha index for 's1-s2' must be an integer"),
    ("a3", {"alpha": {"s1s2": 1}}, "bad edge key 's1s2'"),
    ("a3", {"alpha": {"s1-s3": 1}}, "'s1-s3' is not an edge of the diagram"),
    ("a3", [1], "parameter document must be an object"),
    ("affine_triangle", {"chords": {"s2-s3": True}}, "booleans are not scalars"),
    ("affine_triangle", {"chords": {"s2-s3": "1/x"}}, "bad rational literal '1/x'"),
    ("affine_triangle", {"chords": {"s2-s3": 2, "s3-s2": 5}},
     "'s3-s2' names the same edge as 's2-s3'"),
    ("affine_triangle", {"chords": {"s3-s2": 5, "s2-s3": 2}},
     "'s2-s3' names the same edge as 's3-s2'"),
    ("a3", {"alpha": {"s1-s2": 1, "s2-s1": 1}}, "'s2-s1' names the same edge as 's1-s2'"),
])
def test_bad_params_file_exit_2(capsys, tmp_path, diagram, document, message):
    params = _file(tmp_path, "params.json", document)
    assert_input_error(run(capsys, "build", "--diagram", diagram, "--root", "s1",
                           "--params", params), message)


@pytest.mark.parametrize("document, root, message", [
    ({"m": 5}, "s1", '"m" must be a list of rows of integers'),
    ({"m": [[1, 3], 3]}, "s1", '"m" must be a list of rows of integers'),
    ({"m": [[1, 3], [3, True]]}, "s1", '"m" must be a list of rows of integers'),
    ({"m": [[1, 3], [3, 1]], "labels": "ab"}, "a", '"labels" must be a list of strings'),
    ({"m": [[1, 3], [3, 1]], "labels": ["a", 2]}, "a", '"labels" must be a list of strings'),
    ({"rank": 2}, "s1", 'diagram document needs an "m" matrix'),
    ({"rank": 3, "m": [[1, 3], [3, 1]]}, "s1", "declared rank does not match the matrix"),
    ({"rank": True, "m": [[1]]}, "s1", "declared rank does not match the matrix"),
    ({"rank": 2.0, "m": [[1, 3], [3, 1]]}, "s1", "declared rank does not match the matrix"),
])
def test_bad_diagram_file_exit_2(capsys, tmp_path, document, root, message):
    diagram = _file(tmp_path, "diagram.json", document)
    assert_input_error(run(capsys, "build", "--diagram", diagram, "--root", root),
                       message)


def test_both_spellings_of_a_chord_key_name_one_edge(capsys, tmp_path):
    """'s3-s2' builds what 's2-s3' does: the scalar is entry (s2, s3) of
    generator s2, the lower vertex index, whichever order the key uses."""
    docs = []
    for key in ("s2-s3", "s3-s2"):
        params = _file(tmp_path, f"{key}.json", {"chords": {key: 5}})
        code, doc, _ = run_json(capsys, "build", "--diagram", "affine_triangle",
                                "--root", "s1", "--params", params)
        assert code == 0 and doc["chords"] == [["s2", "s3"]]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert fraction_matrix(docs[0]["generators"]["s2"])[1] == [1, -1, 5]


def test_diagram_path_that_is_a_directory_exit_2(capsys, tmp_path):
    assert_input_error(run(capsys, "build", "--diagram", str(tmp_path), "--root", "s1"),
                       "bad diagram")


@pytest.mark.parametrize("argv, message", [
    (["build", "--diagram", "a3", "--root", "s9"], "no vertex labelled 's9'"),
    (["equiv", "--diagram", "a3", "--root", "s1", "--root2", "s9"],
     "no vertex labelled 's9'"),
    (["form", "--diagram", "h3", "--root", "s1", "--theta", "2"],
     "index 2 not coprime to conductor 30"),
])
def test_bad_option_value_exit_2(capsys, argv, message):
    assert_input_error(run(capsys, *argv), message)


def test_matrix_document_must_be_a_list_of_rows():
    with pytest.raises(InputError, match="matrix must be a list of rows"):
        rep_matrices_from_json({"conductor": 5, "generators": {"s1": 7}})


def test_equiv_second_job_has_no_diagram_of_its_own(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["equiv", "--diagram", "a3", "--root", "s1", "--diagram2", "b3"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --diagram2" in capsys.readouterr().err


# -- generated documents ------------------------------------------------------

LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                   st.floats(-2, 2, allow_nan=False, width=16),
                   st.sampled_from(["", "s1", "s4", "1/2", "-3/4", "1/0", "x", "s1-s2"]))
JSON = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["m", "num", "den", "edges", "alpha", "chords"]),
                    inner, max_size=3)), max_leaves=8)
EDGE_KEYS = st.sampled_from(["s1-s2", "s2-s3", "s1-s3", "s3-s2", "s2-s1", "s1-s9", "s1s2"])
SCALARS = st.one_of(st.integers(-4, 4), st.sampled_from(["1/2", "-3/4", "0", "1/0", "y"]),
                    st.lists(st.integers(-3, 3), max_size=3),
                    st.fixed_dictionaries({"num": st.lists(st.integers(-3, 3), max_size=3)},
                                          optional={"den": st.integers(-3, 3)}),
                    JSON)


def mostly(strategy):
    """Well-formed three times in four, so that many runs get past the
    input checks."""
    return st.integers(0, 3).flatmap(lambda k: strategy if k else JSON)


PARAMS = mostly(st.fixed_dictionaries({}, optional={
    "alpha": mostly(st.dictionaries(
        EDGE_KEYS, st.one_of(st.just(1), st.integers(-1, 3), LEAVES), max_size=2)),
    "chords": mostly(st.dictionaries(EDGE_KEYS, SCALARS, max_size=2))}))
VERTICES = st.one_of(st.sampled_from(["s1", "s2", "s3", "s4"]), st.integers(-1, 3), LEAVES)
PAIRS = st.lists(st.sampled_from(["s1", "s2", "s3", 0, 1, 2]), min_size=2, max_size=2)
TREES = mostly(st.fixed_dictionaries({"edges": st.lists(
    st.one_of(PAIRS, PAIRS, PAIRS, st.lists(VERTICES, max_size=3), LEAVES),
    min_size=1, max_size=3)}))
SYMMETRIC = st.tuples(*[st.sampled_from([2, 3, 4, 5])] * 3).map(
    lambda m: [[1, m[0], m[1]], [m[0], 1, m[2]], [m[1], m[2], 1]])
MATRICES = mostly(st.one_of(
    SYMMETRIC, st.lists(st.lists(st.one_of(st.integers(-1, 5), LEAVES), max_size=4),
                        max_size=4)))
DIAGRAMS = mostly(st.fixed_dictionaries({"m": MATRICES}, optional={
    "rank": st.one_of(st.just(3), st.integers(0, 4), LEAVES),
    "labels": st.one_of(st.lists(st.sampled_from(["s1", "s2", "s3", "s1-s2"]), max_size=4),
                        JSON)}))


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["build", "verify", "form", "equiv", "dual"]),
       diagram=st.sampled_from(["a3", "affine_triangle"]),
       root=st.sampled_from(["s1", "s2", "s3"]),
       document=st.one_of(st.tuples(st.just("--diagram"), DIAGRAMS),
                          st.tuples(st.just("--tree"), TREES),
                          st.tuples(st.just("--params"), PARAMS)))
def test_generated_documents_exit_0_2_or_3_without_traceback(command, diagram, root,
                                                               document):
    # one generated document per run; a generated diagram replaces the bundled one
    option, content = document
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--root", root, "--diagram", diagram,
                option, _file(Path(tmp), "document.json", content)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert (code == 2) == err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


def test_build_rank_two_label_2003(capsys, tmp_path):
    # field degree 1001: set-up keeps only psi, so this stays small
    code, doc, err = run_json(capsys, "build", "--diagram", _rank_two_diagram(tmp_path, 2003),
                              "--root", "s1")
    assert code == 0 and err == ""
    assert doc["conductor"] == 4006


SUBCOMMANDS = ["build", "verify", "form", "equiv", "dual", "rebuild"]
FLAGS = ["--diagram", "--root", "--tree", "--params", "--format", "--max-order",
         "--theta", "--root2", "--tree2", "--params2", "--depth"]
ARGV_FILES = {
    "tree_ok.json": {"edges": [["s1", "s2"], ["s2", "s3"]]},
    "tree_bad.json": {"edges": [["s1", "s3"]]},
    "params_ok.json": {"alpha": {"s1-s2": 1}},
    "params_bad.json": {"alpha": {"s1-s2": 7}, "chords": {"s1-s3": "1/0"}},
    "i2_5.json": {"m": [[1, 5], [5, 1]]},
}


def _argv_values(tmp_path):
    files = [_file(tmp_path, name, document) for name, document in ARGV_FILES.items()]
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    files += [str(broken), str(tmp_path / "absent.json"), str(tmp_path)]
    return st.one_of(
        st.sampled_from(["a3", "b3", "bc3", "h3", "affine_triangle", "k4", "a9"]),
        st.sampled_from(["s1", "s2", "s3", "s4", "x", "json", "text", ""]),
        st.sampled_from([0, -1, -3, 2, 3, 5, 7, 2 ** 64 + 1, -(2 ** 64) - 1]).map(str),
        st.sampled_from(files))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_generated_argv_exit_0_2_or_3_without_traceback(tmp_path, data):
    # the files are the same for every example, so sharing tmp_path is sound
    values = _argv_values(tmp_path)
    argv = [data.draw(st.sampled_from(SUBCOMMANDS))]
    for flag in data.draw(st.lists(st.sampled_from(FLAGS), max_size=6)):
        argv.append(flag)
        if data.draw(st.integers(0, 5)):            # sometimes no value
            argv.append(data.draw(values))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert code != 2 or "error:" in err.getvalue(), argv
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("name", ["alpha", "chords"])
@pytest.mark.parametrize("value", [[], 0, False, ""])
def test_falsy_parameter_sections_exit_2(capsys, tmp_path, name, value):
    diagram = _file(tmp_path, "diagram.json", {"m": [[1, 3], [3, 1]], "labels": ["a", "b"]})
    params = _file(tmp_path, "params.json", {name: value})
    assert_input_error(run(capsys, "build", "--diagram", diagram, "--root", "a",
                           "--params", params), '"alpha" and "chords" must be objects')


@pytest.mark.parametrize("document", [{}, {"alpha": None}, {"chords": None},
                                      {"alpha": None, "chords": None}])
def test_missing_or_null_parameter_sections_mean_none_given(capsys, tmp_path, document):
    params = _file(tmp_path, "params.json", document)
    assert run(capsys, "build", "--diagram", "a3", "--root", "s1", "--params", params) == \
        run(capsys, "build", "--diagram", "a3", "--root", "s1")


@pytest.mark.parametrize("labels", [["a-b", "c", "d"], ["a", "-", "d"], ["a", "b", "d-"]])
def test_labels_with_a_dash_exit_2(capsys, tmp_path, labels):
    bad = next(v for v in labels if "-" in v)
    diagram = _file(tmp_path, "diagram.json",
                    {"m": [[1, 3, 3], [3, 1, 3], [3, 3, 1]], "labels": labels})
    assert_input_error(run(capsys, "build", "--diagram", diagram, "--root", labels[1]),
                       f"label {bad!r} contains '-'")


def _generated_diagrams():
    """Small random diagrams with chords, some with labels of their own,
    each with its first vertex as the root."""
    rng = random.Random(2718)
    found = []
    for rank in (3, 4, 4, 5):
        m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for t in range(1, rank):
            s = rng.randrange(t)
            m[s][t] = m[t][s] = rng.choice([3, 4, 5, 6])
        free = [(s, t) for s in range(rank) for t in range(s + 1, rank) if m[s][t] == 2]
        for s, t in rng.sample(free, min(2, len(free))):
            m[s][t] = m[t][s] = rng.choice([3, 4, 5])
        if len(found) % 2:
            labels = [f"v_{i}.x" for i in range(rank)]
            found.append(({"m": m, "labels": labels}, labels[0]))
        else:
            found.append(({"m": m}, "s1"))
    return found


@pytest.mark.parametrize("diagram, root", [(name, "s1") for name in
                                           ("a3", "affine_triangle", "b3", "bc3", "h3", "k4")]
                         + _generated_diagrams())
def test_parameters_of_build_round_trip_through_params(capsys, tmp_path, diagram, root):
    if not isinstance(diagram, str):
        diagram = _file(tmp_path, "diagram.json", diagram)
    argv = ["build", "--diagram", diagram, "--root", root, "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    params = _file(tmp_path, "params.json", json.loads(out)["parameters"])
    assert run(capsys, *argv, "--params", params) == (0, out, "")
