"""Closed forms from the rank-one generators I - e_s * (Cartan row s), each
against the general route it replaced: the adapted dual generators against
the conjugation by linalg.inverse, the pair characteristic polynomials
against Faddeev-LeVerrier (linalg.charpoly), and the inverse of the
diagonal equivalence intertwiner against linalg.inverse."""

import json
import random
import sys
import time

import pytest
from conftest import _random_tree
from oracles import adapted_by_conjugation

from coxrep import forms, linalg
from coxrep.analysis import is_reflection, pair_char_poly, product_analysis
from coxrep.io import params_to_json
from coxrep.cli import _diagonal_inverse, _normalize_integral, main
from coxrep.construction import (
    build,
    equivalence_intertwiner,
    geometric_parameters,
    tree_change_intertwiner,
)
from coxrep.cyclotomic import field_context
from coxrep.forms import dual_representation
from coxrep.graph import spanning_tree, validate

TRIANGLE_1584 = validate([[1, 11, 9], [11, 1, 8], [9, 8, 1]])


def _geometric(diagram, root=0):
    tree = spanning_tree(diagram, root)
    return build(tree, geometric_parameters(tree))


def _check_adapted(rep) -> bool:
    dual = dual_representation(rep)
    if dual.degenerate:
        assert dual.adapted_generators is None
        return False
    expected = adapted_by_conjugation(rep)
    assert all(linalg.mat_eq(a, b) for a, b in zip(dual.adapted_generators, expected))
    return True


def _check_pair_char_polys(rep) -> int:
    ctx = rep.ctx
    count = 0
    for s, r_gen in enumerate(rep.generators):
        for s_gen in rep.generators[s:]:
            product = linalg.mat_mul(ctx, r_gen, s_gen)
            assert pair_char_poly(ctx, product) == tuple(linalg.charpoly(ctx, product))
            count += 1
    return count


def test_adapted_generators_match_the_conjugation_on_the_corpus(suite_instances):
    checked = sum(_check_adapted(inst.rep) for inst in suite_instances)
    assert checked > 150


def test_pair_char_polys_match_faddeev_leverrier_on_the_corpus(suite_instances):
    # every ordered pair s <= t, the diagonal (rs = I) and rank 1 included
    assert sum(_check_pair_char_polys(inst.rep) for inst in suite_instances) > 1000
    assert any(inst.diagram.rank == 1 for inst in suite_instances)


def test_product_analysis_reports_the_faddeev_leverrier_char_poly(suite_instances):
    for inst in suite_instances[:40]:
        rep, ctx = inst.rep, inst.rep.ctx
        reflections = [is_reflection(ctx, g) for g in rep.generators]
        for s in range(rep.rank):
            for t in range(s + 1, rep.rank):
                analysis = product_analysis(reflections[s], reflections[t])
                product = linalg.mat_mul(ctx, rep.generators[s], rep.generators[t])
                assert analysis.char_poly == tuple(linalg.charpoly(ctx, product))


def test_parallel_directing_vectors_compare_with_the_unipotent_closed_form():
    ctx = field_context(1)
    one, zero = ctx.one, ctx.zero
    r = is_reflection(ctx, [[-one, zero, zero], [zero, one, zero], [zero, zero, one]])
    s = is_reflection(ctx, [[-one, one, zero], [zero, one, zero], [zero, zero, one]])
    analysis = product_analysis(r, s)
    assert analysis.closed_form_matches is None
    assert [x.as_fraction() for x in analysis.char_poly] == [-1, 3, -3, 1]


def test_diagonal_inverse_matches_the_matrix_inverse_on_the_corpus(suite_instances):
    rng = random.Random(11)
    for inst in suite_instances:
        rep = inst.rep
        other = tree_change_intertwiner(rep, _random_tree(rng, inst.diagram)).target
        g = _normalize_integral(equivalence_intertwiner(rep, other).matrix)
        assert linalg.mat_eq(_diagonal_inverse(g), linalg.inverse(rep.ctx, g))


@pytest.mark.slow
def test_closed_forms_on_the_triangle_of_conductor_1584():
    # labels 11, 8 and 9: field degree 240
    rep = _geometric(TRIANGLE_1584)
    assert rep.ctx.N == 1584
    assert _check_adapted(rep)
    assert _check_pair_char_polys(rep) == 6
    moved = tree_change_intertwiner(rep, spanning_tree(TRIANGLE_1584, 2)).target
    g = _normalize_integral(equivalence_intertwiner(rep, moved).matrix)
    assert linalg.mat_eq(_diagonal_inverse(g), linalg.inverse(rep.ctx, g))


def test_a_corrupted_adapted_generator_exits_4(capsys, monkeypatch):
    closed_form = forms.adapted_generators

    def corrupted(rows, products):
        gens = [list(map(list, m)) for m in closed_form(rows, products)]
        gens[1][1][0] = gens[1][1][0] + 1
        return tuple(linalg.mat_freeze(m) for m in gens)

    monkeypatch.setattr(forms, "adapted_generators", corrupted)
    code = main(["dual", "--diagram", "h3", "--root", "s2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("internal consistency error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("entry", [(1, 1, 1), (0, 2, 1), (2, 0, 0)])
def test_one_perturbed_adapted_entry_fails_the_exact_check(capsys, monkeypatch, entry):
    # (generator, row, column): the diagonal entry of row s of generator s,
    # and entries in rows where the generator is that of I; the test above
    # perturbs an off-diagonal entry of row s
    closed_form = forms.adapted_generators

    def perturbed(rep, products):
        gens = [list(map(list, m)) for m in closed_form(rep, products)]
        s, i, j = entry
        gens[s][i][j] = gens[s][i][j] + 1
        return tuple(linalg.mat_freeze(m) for m in gens)

    monkeypatch.setattr(forms, "adapted_generators", perturbed)
    with pytest.raises(forms.AdaptedBasisMismatch):
        dual_representation(_geometric(validate([[1, 3, 2], [3, 1, 5], [2, 5, 1]]), 1))
    code = main(["dual", "--diagram", "h3", "--root", "s2"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("internal consistency error: adapted generators fail "
                            "the exact check D_s B = B A'_s\n")


def test_only_the_discriminant_uses_the_dense_product(suite_instances, tmp_path,
                                                      monkeypatch, capsys):
    # every generator, pair and word product goes through the near-identity
    # kernel; mat_mul is left to the n - 1 Faddeev-LeVerrier products
    inst = next(i for i in suite_instances if i.diagram.rank >= 4 and i.tree.chords
                and not forms.dual_representation(i.rep).degenerate)
    diagram, labels = inst.diagram, inst.diagram.labels
    files = {"diagram": {"m": [list(row) for row in diagram.m], "labels": list(labels)},
             "tree": {"edges": [[labels[s], labels[t]]
                                for s, t in sorted(inst.tree.tree_edges)]},
             "params": params_to_json(diagram, inst.params)}
    job = []
    for name, document in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        job += [f"--{name}", str(path)]
    job += ["--root", labels[inst.tree.root], "--format", "json"]
    calls = []
    dense = linalg.mat_mul

    def counted(ctx, a, b):
        calls.append(len(a))
        return dense(ctx, a, b)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    counts = {}
    for command in (["equiv", "--root2", labels[(inst.tree.root + 1) % diagram.rank]],
                    ["dual"], ["verify"], ["form", "--theta", "1"]):
        calls.clear()
        assert main(command + job) in (0, 3)
        counts[command[0]] = len(calls)
    capsys.readouterr()
    assert counts == {"equiv": 0, "dual": diagram.rank - 1, "verify": 0, "form": 0}


@pytest.mark.parametrize("literal", ["1e100000", "-1e-100000", "1e99999999999999999999",
                                     "0.5E4302", "1e4300"])
def test_a_literal_beyond_the_digit_limit_exits_2_at_once(capsys, tmp_path, literal):
    diagram = tmp_path / "triangle.json"
    diagram.write_text(json.dumps({"rank": 3, "m": [[1, 5, 5], [5, 1, 5], [5, 5, 1]]}))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"chords": {"s2-s3": literal}}))
    start = time.perf_counter()
    code = main(["build", "--diagram", str(diagram), "--root", "s1",
                 "--params", str(params)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: bad job input: rational literal {literal!r} "
                            f"has more than {sys.get_int_max_str_digits()} digits\n")
    assert elapsed < 1.0
