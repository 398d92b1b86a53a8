"""Diagram validation, spanning trees, tree order, circuits."""

import itertools
import random

import pytest
from oracles import entry_vertex

from coxrep.graph import (
    BadDiagonal,
    Disconnected,
    InfiniteLabel,
    NotAChord,
    NotSymmetric,
    chord_circuit,
    precedes,
    spanning_tree,
    spanning_tree_from_edges,
    validate,
)

B3 = [[1, 3, 2], [3, 1, 4], [2, 4, 1]]
TRIANGLE = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
K4 = [[1, 3, 3, 3], [3, 1, 3, 3], [3, 3, 1, 3], [3, 3, 3, 1]]
SQUARE = [[1, 3, 2, 3], [3, 1, 3, 2], [2, 3, 1, 3], [3, 2, 3, 1]]


def test_validate_b3():
    diagram = validate(B3)
    assert diagram.rank == 3
    assert diagram.edges == ((0, 1), (1, 2))
    assert diagram.edge_label(1, 2) == 4
    assert diagram.labels == ("s1", "s2", "s3")


def test_validate_rank_one_and_triangle():
    assert validate([[1]]).edges == ()
    assert validate(TRIANGLE).edges == ((0, 1), (0, 2), (1, 2))


def test_validate_errors():
    with pytest.raises(NotSymmetric):
        validate([[1, 3], [4, 1]])
    with pytest.raises(BadDiagonal):
        validate([[2, 3], [3, 1]])
    with pytest.raises(InfiniteLabel):
        validate([[1, 0], [0, 1]])
    with pytest.raises(Disconnected):
        validate([[1, 2, 3], [2, 1, 2], [3, 2, 1]][:2] + [[3, 2, 1]])
    with pytest.raises(Disconnected):
        validate([[1, 2], [2, 1]])


def test_spanning_tree_path_graph():
    diagram = validate(B3)
    tree = spanning_tree(diagram, 1)
    assert tree.tree_edges == frozenset({(0, 1), (1, 2)})
    assert tree.chords == ()
    assert tree.depth == (1, 0, 1)


def test_spanning_tree_triangle_and_k4():
    tri = validate(TRIANGLE)
    tree = spanning_tree(tri, 0)
    assert tree.tree_edges == frozenset({(0, 1), (0, 2)})
    assert tree.chords == ((1, 2),)
    k4 = validate(K4)
    star = spanning_tree(k4, 0)
    assert star.tree_edges == frozenset({(0, 1), (0, 2), (0, 3)})
    assert len(star.chords) == 3


def test_precedes_b3():
    tree = spanning_tree(validate(B3), 2)
    assert precedes(tree, 2, 0)
    assert precedes(tree, 2, 1)
    assert precedes(tree, 1, 0)
    assert not precedes(tree, 0, 1)
    for s in range(3):
        assert precedes(tree, s, s)


def test_precedes_branches():
    tree = spanning_tree(validate(TRIANGLE), 0)
    assert not precedes(tree, 1, 2)
    assert not precedes(tree, 2, 1)
    assert precedes(tree, 0, 1) and precedes(tree, 0, 2)


def _all_connected_diagrams(n, labels=(2, 3)):
    pairs = list(itertools.combinations(range(n), 2))
    for assignment in itertools.product(labels, repeat=len(pairs)):
        rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for (i, j), m in zip(pairs, assignment):
            rows[i][j] = rows[j][i] = m
        try:
            yield validate(rows)
        except Disconnected:
            continue


def test_tree_edge_and_chord_counts_exhaustive():
    for n in range(1, 6):
        for diagram in _all_connected_diagrams(n):
            for root in range(n):
                tree = spanning_tree(diagram, root)
                assert len(tree.tree_edges) == n - 1
                assert len(tree.chords) == len(diagram.edges) - n + 1


def test_precedes_is_partial_order():
    rng = random.Random(7)
    for diagram in list(_all_connected_diagrams(4)):
        tree = spanning_tree(diagram, rng.randrange(4))
        n = diagram.rank
        for s in range(n):
            assert precedes(tree, s, s)
            for t in range(n):
                if s != t and precedes(tree, s, t):
                    assert not precedes(tree, t, s)
                for u in range(n):
                    if precedes(tree, s, t) and precedes(tree, t, u):
                        assert precedes(tree, s, u)


def test_chord_circuit_triangle():
    tree = spanning_tree(validate(TRIANGLE), 0)
    circuit = chord_circuit(tree, (1, 2))
    assert circuit.path == (1, 0, 2)
    assert entry_vertex(circuit) == 0
    assert circuit.entry_index == 1


def test_chord_circuit_square_and_degenerate_entry():
    sq = validate(SQUARE)  # 4-cycle 0-1-2-3-0
    tree = spanning_tree(sq, 0)  # BFS: edges (0,1), (0,3), (1,2); chord (2,3)
    circuit = chord_circuit(tree, (2, 3))
    assert circuit.path == (2, 1, 0, 3)
    assert entry_vertex(circuit) == 0
    # chord incident to the root: entry is an endpoint
    tri = spanning_tree(validate(TRIANGLE), 0)
    path_tree = spanning_tree_from_edges(tri.diagram, 0, [(0, 1), (1, 2)])
    circuit = chord_circuit(path_tree, (0, 2))
    assert entry_vertex(circuit) == 0
    assert circuit.entry_index in (0, len(circuit.path) - 1)


def test_chord_circuit_entry_unique_randomized():
    rng = random.Random(3)
    for diagram in _all_connected_diagrams(5):
        if not rng.random() < 0.1:
            continue
        tree = spanning_tree(diagram, rng.randrange(5))
        for chord in tree.chords:
            circuit = chord_circuit(tree, chord)
            entries = [v for v in circuit.path
                       if all(precedes(tree, v, w) for w in circuit.path)]
            assert entries == [entry_vertex(circuit)]


def test_chord_circuit_rejects_tree_edge():
    tree = spanning_tree(validate(B3), 0)
    with pytest.raises(NotAChord):
        chord_circuit(tree, (0, 1))


def test_breadth_first_tree_matches_the_checked_tree_of_its_edges(suite_instances):
    trees = 0
    for inst in suite_instances:
        for root in range(inst.diagram.rank):
            tree = spanning_tree(inst.diagram, root)
            assert tree == spanning_tree_from_edges(inst.diagram, root, tree.tree_edges)
            trees += 1
    assert trees > 700
