"""Equivalence decided by the tree rescaling, against the solve route, on
the corpus and through the CLI; inner chords against the pairwise scan."""

import dataclasses
import json
import random
from collections import Counter

import pytest

from conftest import _random_tree
from oracles import equivalence_by_solve, has_inner_chord

from coxrep import io as cio
from coxrep import linalg
from coxrep.analysis import characters_distinguish, circuit_trace
from coxrep.cartanpoly import admissible_root_indices
from coxrep.cli import _normalize_integral, main
from coxrep.construction import (
    ReflectionRep,
    build,
    geometric_parameters,
    tree_change_intertwiner,
)
from coxrep.graph import spanning_tree, spanning_tree_from_edges


def _perturbed(rng: random.Random, rep: ReflectionRep, count: int) -> ReflectionRep | None:
    """rep with `count` parameters changed, each an edge's alpha index
    (to another admissible one) or a chord scalar (l to l + 1, or to 2l
    where l + 1 = 0); None when rep has fewer parameters that can change."""
    diagram, params = rep.diagram, rep.params
    options = [("alpha", e) for e in diagram.edges
               if len(admissible_root_indices(diagram.edge_label(*e))) > 1]
    options += [("chord", c) for c in rep.tree.chords]
    if len(options) < count:
        return None
    for what, edge in rng.sample(options, count):
        if what == "alpha":
            indices = admissible_root_indices(diagram.edge_label(*edge))
            params = params.with_alpha(
                edge, rng.choice([k for k in indices if k != params.alpha_index[edge]]))
        else:
            l = params.chord_l[edge]
            params = params.with_chord(edge, 2 * l if (l + 1).is_zero() else l + 1)
    return build(rep.tree, params)


def test_equivalence_on_the_corpus_matches_the_solve_route(suite_instances):
    # each instance against its tree change to a random tree and root, and
    # against that change with one and with two parameters changed
    rng = random.Random(9)
    kinds = Counter()
    for inst in suite_instances:
        if inst.diagram.rank < 2:
            continue
        rep = inst.rep
        moved = tree_change_intertwiner(rep, _random_tree(rng, inst.diagram)).target
        for other in (moved, _perturbed(rng, moved, 1), _perturbed(rng, moved, 2)):
            if other is None:
                continue
            verdict = characters_distinguish(rep, other)
            expected = equivalence_by_solve(rep, other)
            assert (verdict.kind, verdict.word) == (expected.kind, expected.word), inst.index
            kinds[verdict.kind] += 1
            if verdict.kind != "equivalent":
                continue
            g = verdict.intertwiner
            n = rep.rank
            assert all(g[i][j].is_zero() for i in range(n) for j in range(n) if i != j)
            assert g[other.root][other.root] == 1
            assert linalg.mat_eq(g, tree_change_intertwiner(rep, other.tree).matrix)
    assert kinds["equivalent"] == sum(inst.diagram.rank >= 2 for inst in suite_instances)
    assert kinds["distinct"] > kinds["equivalent"]


def test_circuit_trace_finds_inner_chords_as_the_pairwise_scan(suite_instances):
    found = Counter()
    for inst in suite_instances:
        for chord in inst.tree.chords:
            chordless = circuit_trace(inst.rep, chord).chordless
            assert chordless == (not has_inner_chord(inst.rep, chord)), inst.index
            found[chordless] += 1
    assert found[True] > 0 and found[False] > 0


def test_equiv_on_another_tree_prints_g_scaled_to_1_at_root2(capsys, tmp_path):
    # the second job is the first one moved to the tree s1-s2-s3 rooted at
    # s1: g is 1 at s1 and s2 and irrational at s3, already primitive
    m = [[1, 4, 5], [4, 1, 3], [5, 3, 1]]
    diagram_path = tmp_path / "triangle.json"
    diagram_path.write_text(json.dumps({"m": m}))
    diagram = cio.load_diagram(str(diagram_path))
    tree = spanning_tree(diagram, 0)
    rep = build(tree, geometric_parameters(tree))
    tree2 = spanning_tree_from_edges(diagram, 0, [(0, 1), (1, 2)])
    assert tree2.tree_edges != tree.tree_edges
    moved = tree_change_intertwiner(rep, tree2)
    tree2_path = tmp_path / "tree2.json"
    tree2_path.write_text(json.dumps({"edges": [["s1", "s2"], ["s2", "s3"]]}))
    params2_path = tmp_path / "params2.json"
    params2_path.write_text(json.dumps({"chords": {
        "s1-s3": cio.scalar_to_json(moved.target.params.chord_l[(0, 2)])}}))
    code = main(["equiv", "--diagram", str(diagram_path), "--root", "s1",
                 "--tree2", str(tree2_path), "--root2", "s1",
                 "--params2", str(params2_path), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["verdict"] == "equivalent"
    expected = _normalize_integral(moved.matrix)
    assert linalg.mat_eq(expected, moved.matrix)
    assert doc["intertwiner"] == cio.matrix_to_json(expected)
    assert not moved.diagonal[2].is_rational()


@pytest.mark.parametrize("index", [0, 1, 2])
def test_intertwiner_verify_rejects_one_changed_scale(index):
    # the tree change of the 4-5-3 triangle to s1-s2-s3 has the diagonal
    # (1, 1, irrational); doubling any one scale breaks A_s g = g B_s
    diagram = cio.diagram_from_json({"m": [[1, 4, 5], [4, 1, 3], [5, 3, 1]]})
    tree = spanning_tree(diagram, 0)
    rep = build(tree, geometric_parameters(tree))
    moved = tree_change_intertwiner(
        rep, spanning_tree_from_edges(diagram, 0, [(0, 1), (1, 2)]))
    assert moved.verify()
    diagonal = list(moved.diagonal)
    diagonal[index] = 2 * diagonal[index]
    assert not dataclasses.replace(moved, diagonal=tuple(diagonal)).verify()

