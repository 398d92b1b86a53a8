"""The routes that build only the field elements a result keeps, each
against the route it replaced: cos_element against the power-basis walk
and the FieldElement recurrence, the adapted dual generators (a
tree-product inversion only at chord endpoints) against the closed form
that inverts every tree product, the cross-multiplied dual chord check
against its division form, the quadratic comparison of product_analysis,
DualRep.adapted_rank against the pivots of linalg.eliminate, and the
geometric chord scalars of a parameter document against the geometric
parameters overwritten."""

import dataclasses
import json
import random

import pytest
from oracles import (
    adapted_by_inversions,
    chord_check_by_division,
    cosines_by_field_recurrence,
    power_cosines,
)

from coxrep import analysis, construction, linalg
from coxrep.analysis import OrderMismatch, is_reflection, product_analysis
from coxrep.cli import _json_text
from coxrep.construction import build, cartan_matrix, geometric_parameters
from coxrep.cyclotomic import FieldContext
from coxrep.forms import dual_chord_coefficients_match, dual_representation
from coxrep.graph import spanning_tree, spanning_tree_from_edges, validate
from coxrep.io import params_from_json, params_to_json

# degree 1 (1, 2, 3, 4, 6), psi with zero terms (12, 1260: 4 | N) and
# N = 2 mod 4, where psi has none (210, 1386)
CONDUCTORS = (1, 2, 3, 4, 6, 5, 12, 210, 1260, 1386)
TRIANGLE_336 = validate([[1, 7, 3], [7, 1, 8], [3, 8, 1]])
TRIANGLE_1260 = validate([[1, 7, 10], [7, 1, 9], [10, 9, 1]])


@pytest.mark.parametrize("n", CONDUCTORS)
def test_the_cosine_walk_matches_the_field_recurrence(n):
    """cos_element, a basis vector or a fold-table row, against the
    power-basis walk and the FieldElement recurrence, with the table built
    at once and resumed."""
    half = n // 2
    expected = cosines_by_field_recurrence(FieldContext(n), half)
    assert power_cosines(FieldContext(n), half) == expected
    at_once = FieldContext(n)
    assert at_once.cos_element(half, n).power_num == expected[half]
    resumed = FieldContext(n)
    for j in sorted(j for j in {0, 1, half // 3, half // 2, half} if j <= half):
        value = resumed.cos_element(j, n)
        assert value.power_num == expected[j] and value.den == 1
    for ctx in (at_once, resumed):
        assert [ctx.cos_element(j, n).power_num for j in range(half + 1)] == expected
    assert at_once.generator.power_num == expected[min(1, half)]


def _geometric(diagram, tree=None):
    tree = tree or spanning_tree(diagram, 0)
    return build(tree, geometric_parameters(tree))


def _with_entry_moved(dual, s, row, col):
    gens = [list(map(list, m)) for m in dual.adapted_generators]
    gens[s][row][col] = gens[s][row][col] + 1
    return dataclasses.replace(
        dual, adapted_generators=tuple(linalg.mat_freeze(m) for m in gens))


def _check_dual(rep) -> bool:
    """The adapted generators against the n-inversion closed form, and the
    chord check against its division form, on the dual and on copies with
    one chord entry moved; False for a degenerate dual."""
    dual = dual_representation(rep)
    if dual.degenerate:
        return False
    expected = adapted_by_inversions(rep)
    assert all(linalg.mat_eq(a, b) for a, b in zip(dual.adapted_generators, expected))
    assert dual_chord_coefficients_match(dual) is chord_check_by_division(dual) is True
    for s, t in rep.tree.chords:
        for moved in (_with_entry_moved(dual, t, t, s), _with_entry_moved(dual, s, s, t)):
            assert dual_chord_coefficients_match(moved) is chord_check_by_division(moved) \
                is False
    return True


def test_adapted_generators_and_chord_verdicts_match_the_oracles_on_the_corpus(
        suite_instances):
    checked = [inst for inst in suite_instances if _check_dual(inst.rep)]
    assert len(checked) > 150
    assert any(inst.tree.root in chord for inst in checked for chord in inst.tree.chords)
    assert any(inst.tree.chords and all(inst.tree.root not in chord
                                        for chord in inst.tree.chords)
               for inst in checked)


@pytest.mark.slow
@pytest.mark.parametrize("diagram", [TRIANGLE_336, TRIANGLE_1260], ids=["N336", "N1260"])
def test_adapted_generators_and_chord_verdicts_on_high_degree_triangles(diagram):
    off_root = _geometric(diagram)                      # chord (1, 2), root 0
    at_root = _geometric(diagram, spanning_tree_from_edges(diagram, 0, [(0, 1), (1, 2)]))
    assert off_root.tree.chords == ((1, 2),) and at_root.tree.chords == ((0, 2),)
    assert off_root.ctx.N in (336, 1260)
    assert _check_dual(off_root) and _check_dual(at_root)


def test_a_wrong_quadratic_makes_product_analysis_raise(monkeypatch):
    rep = _geometric(TRIANGLE_336)
    r, s = (is_reflection(rep.ctx, g) for g in rep.generators[:2])
    assert product_analysis(r, s).order_class.finite_order == 7
    right = analysis._pair_quadratic

    def wrong(ctx, product):
        constant, linear, top = right(ctx, product)
        return constant + 1, linear, top

    monkeypatch.setattr(analysis, "_pair_quadratic", wrong)
    with pytest.raises(OrderMismatch, match="characteristic polynomial"):
        product_analysis(r, s)


def test_adapted_rank_matches_the_rank_of_the_cartan_rows(suite_instances, monkeypatch):
    duals = [(inst.rep, dual_representation(inst.rep)) for inst in suite_instances]
    assert any(dual.degenerate for _, dual in duals)
    for rep, dual in duals:
        rows = [list(row) for row in cartan_matrix(rep).entries]
        assert dual.adapted_rank() == len(linalg.eliminate(rep.ctx, rows)[1])

    def no_elimination(ctx, rows):
        raise AssertionError("eliminated with a nonzero discriminant")

    monkeypatch.setattr(linalg, "_echelon", no_elimination)
    assert all(dual.adapted_rank() == rep.rank
               for rep, dual in duals if not dual.degenerate)


def test_document_chord_scalars_skip_the_geometric_walk(suite_instances, monkeypatch):
    rng = random.Random(12)
    walked = []
    rescaling = construction.tree_rescaling

    def counted(tree, c, one, chords=None):
        walked.append(None if chords is None else tuple(chords))
        return rescaling(tree, c, one, chords)

    monkeypatch.setattr(construction, "tree_rescaling", counted)
    for inst in suite_instances:
        tree = inst.tree
        full = json.loads(_json_text(params_to_json(inst.params)))
        walked.clear()
        assert params_from_json(tree, full) == inst.params
        assert walked == []
        left_out = {key for key in full["chords"] if rng.random() < 0.5}
        part = {"alpha": full["alpha"],
                "chords": {k: v for k, v in full["chords"].items() if k not in left_out}}
        # the route replaced: geometric parameters, then the document's values
        expected = geometric_parameters(tree)
        for key, spec in part["chords"].items():
            s, t = (inst.diagram.vertex_index(v) for v in key.split("-"))
            expected = expected.with_chord((s, t), inst.params.chord_l[(s, t)])
        for edge, k in inst.params.alpha_index.items():
            expected = expected.with_alpha(edge, k)
        oracle_walks = len(walked)
        walked.clear()
        assert params_from_json(tree, part) == expected
        labels = inst.diagram.labels
        missing = tuple(c for c in tree.chords if f"{labels[c[0]]}-{labels[c[1]]}" in left_out)
        assert walked == ([missing] if missing else [])
        assert oracle_walks == (1 if tree.chords else 0)
    assert geometric_parameters(spanning_tree(validate([[1, 5], [5, 1]]), 0)).chord_l == {}
