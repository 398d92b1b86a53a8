"""Fundamental construction: golden Cartan matrices, parameters, intertwiners."""

import math
import random
from fractions import Fraction

import pytest

from conftest import _random_tree
from oracles import geometric_chord_scalar

from coxrep.analysis import circuit_trace
from coxrep.construction import (
    IncompleteParameters,
    ParameterSystem,
    ZeroChordParameter,
    build,
    cartan_matrix,
    cartan_rows,
    conductor_for,
    geometric_parameters,
    geometric_representation,
    root_change_intertwiner,
    tree_change_intertwiner,
)
from coxrep.cyclotomic import FieldContext, FieldElement, field_context
from coxrep.forms import Automorphism, build_form, form_exists, tree_product
from coxrep.graph import DifferentDiagram, spanning_tree, spanning_tree_from_edges, validate
from coxrep import linalg

B3 = validate([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
BC3 = validate([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
H3 = validate([[1, 3, 2], [3, 1, 5], [2, 5, 1]])
TRIANGLE = validate([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


def as_fractions(matrix):
    return [[x.as_fraction() for x in row] for row in matrix]


def test_conductors():
    assert conductor_for(B3) == 24
    assert conductor_for(BC3) == 8
    assert conductor_for(H3) == 30
    assert conductor_for(validate([[1]])) == 1


def test_b3_cartan_both_roots():
    rep2 = geometric_representation(B3, "s2")
    assert as_fractions(cartan_matrix(rep2).entries) == [
        [2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    rep3 = geometric_representation(B3, "s3")
    assert as_fractions(cartan_matrix(rep3).entries) == [
        [2, -1, 0], [-1, 2, -1], [0, -2, 2]]


def test_bc3_cartan_and_discriminant():
    rep1 = geometric_representation(BC3, "s1")
    data1 = cartan_matrix(rep1)
    assert as_fractions(data1.entries) == [[2, -2, 0], [-1, 2, -2], [0, -1, 2]]
    assert data1.discriminant.is_zero()
    rep2 = geometric_representation(BC3, "s2")
    data2 = cartan_matrix(rep2)
    assert as_fractions(data2.entries) == [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]
    assert data2.discriminant.is_zero()


def test_h3_cartan_discriminant_both_roots_and_choices():
    ctx = field_context(30)
    for k in (1, 2):
        alpha = 2 + ctx.cos_element(k, 5)
        tree2 = spanning_tree(H3, 1)
        params = geometric_parameters(tree2).with_alpha((1, 2), k)
        rep2 = build(tree2, params)
        data = cartan_matrix(rep2)
        entries = data.entries
        assert entries[1][2] == -alpha and entries[1][0] == -1
        assert entries[2][1] == -1 and entries[0][1] == -1
        assert data.discriminant == 6 - 2 * alpha
        tree3 = spanning_tree(H3, 2)
        rep3 = build(tree3, geometric_parameters(tree3).with_alpha((1, 2), k))
        data3 = cartan_matrix(rep3)
        assert data3.entries[2][1] == -alpha
        assert data3.entries[1][2] == -1
        assert data3.discriminant == 6 - 2 * alpha


def test_rank_one():
    diagram = validate([[1]])
    rep = geometric_representation(diagram, 0)
    assert as_fractions(rep.generators[0]) == [[-1]]
    assert as_fractions(cartan_matrix(rep).entries) == [[2]]


def test_a2_cartan():
    a2 = validate([[1, 3], [3, 1]])
    rep = geometric_representation(a2, 0)
    data = cartan_matrix(rep)
    assert as_fractions(data.entries) == [[2, -1], [-1, 2]]
    assert data.discriminant == 3


def test_generators_are_involutions():
    for diagram, root in [(B3, 0), (BC3, 1), (H3, 2), (TRIANGLE, 0)]:
        rep = geometric_representation(diagram, root)
        for mat in rep.generators:
            assert linalg.is_identity(rep.ctx, linalg.mat_mul(rep.ctx, mat, mat))


def test_geometric_parameters_tree_diagram_has_no_chords():
    tree = spanning_tree(B3, 1)
    params = geometric_parameters(tree)
    assert params.chord_l == {}
    assert set(params.alpha_index.values()) == {1}


def test_geometric_parameters_affine_triangle():
    tree = spanning_tree(TRIANGLE, 0)
    params = geometric_parameters(tree)
    assert params.chord_l[(1, 2)] == 1
    fwd, back = params.chord_pair(1, 2)
    assert fwd == 1 and back == 1


def test_geometric_chord_product_identity():
    # l_e * l_e' = 4cos^2(pi/m_e) on chords, for a labelled one-circuit diagram
    diagram = validate([[1, 3, 5], [3, 1, 4], [5, 4, 1]])
    for root in range(3):
        tree = spanning_tree(diagram, root)
        params = geometric_parameters(tree)
        for chord in tree.chords:
            fwd, back = params.chord_pair(*chord)
            assert fwd * back == params.alpha(*chord)


def test_parameter_validation_errors():
    tree = spanning_tree(TRIANGLE, 0)
    good = geometric_parameters(tree)
    with pytest.raises(IncompleteParameters):
        build(tree, ParameterSystem(good.diagram, {}, dict(good.chord_l)))
    with pytest.raises(ZeroChordParameter):
        build(tree, good.with_chord((1, 2), good.ctx.zero))
    with pytest.raises(IncompleteParameters):
        build(tree, good.with_alpha((0, 1), 2))  # gcd(2, 3) != 1


def test_parameters_fit_only_the_trees_of_their_diagram():
    # two triangles of conductor 12 with one tree shape: B's geometric chord
    # scalar is A's divided by 3, so A's parameters would build a wrong B
    tree_a = spanning_tree(validate([[1, 3, 6], [3, 1, 3], [6, 3, 1]]), 0)
    tree_b = spanning_tree(validate([[1, 6, 3], [6, 1, 3], [3, 3, 1]]), 0)
    assert conductor_for(tree_a.diagram) == conductor_for(tree_b.diagram) == 12
    assert tree_a.chords == tree_b.chords == ((1, 2),)
    with pytest.raises(DifferentDiagram):
        build(tree_b, geometric_parameters(tree_a))
    # A3's parameters on a B3 tree are refused before any field arithmetic
    a3 = validate([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    with pytest.raises(DifferentDiagram):
        build(spanning_tree(B3, 0), geometric_parameters(spanning_tree(a3, 0)))


def test_alpha_is_computed_once_per_parameter_system(monkeypatch):
    params = geometric_parameters(spanning_tree(validate([[1, 5], [5, 1]]), 0))
    calls = []
    cos_element = FieldContext.cos_element

    def counted(ctx, k, m):
        calls.append((k, m))
        return cos_element(ctx, k, m)

    monkeypatch.setattr(FieldContext, "cos_element", counted)
    first = params.alpha(0, 1)
    assert params.alpha(1, 0) is first
    assert calls == [(1, 5)]
    assert abs(float(first) - 4 * math.cos(math.pi / 5) ** 2) < 1e-12


def test_a_with_alpha_copy_starts_with_fresh_values():
    params = geometric_parameters(spanning_tree(validate([[1, 5], [5, 1]]), 0))
    golden = params.alpha(0, 1)
    other = params.with_alpha((0, 1), 2)
    assert other.alpha(0, 1) == 2 + params.ctx.cos_element(2, 5) != golden
    assert params.alpha(0, 1) == golden
    # equality reads the diagram, indices and scalars, not the cached values
    assert other != params and other.with_alpha((0, 1), 1) == params


def test_b3_root_change_intertwiner_is_diag_2_2_1():
    rep2 = geometric_representation(B3, "s2")
    result = root_change_intertwiner(rep2, "s3")
    assert [x.as_fraction() for x in result.diagonal] == [2, 2, 1]
    assert result.verify()
    assert as_fractions(cartan_matrix(result.target).entries) == [
        [2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    # g is integral, g^-1 is not
    g = result.matrix
    ginv = linalg.inverse(rep2.ctx, g)
    assert all(x.is_integral() for row in g for x in row)
    assert not all(x.is_integral() for row in ginv for x in row)


def test_bc3_root_change_intertwiner():
    rep1 = geometric_representation(BC3, "s1")
    result = root_change_intertwiner(rep1, "s2")
    assert result.verify()
    # scale is pinned up to a global scalar; normalized at the root it is
    # diag(2, 1, 1) -- the moved-root component rescales by alpha = 2
    assert [x.as_fraction() for x in result.diagonal] == [2, 1, 1]
    assert as_fractions(cartan_matrix(result.target).entries) == [
        [2, -1, 0], [-2, 2, -2], [0, -1, 2]]


def test_root_change_identity_and_composition():
    rep = geometric_representation(H3, "s2")
    same = root_change_intertwiner(rep, "s2")
    assert [x.as_fraction() for x in same.diagonal] == [1, 1, 1]
    far = root_change_intertwiner(rep, "s1")
    assert far.verify()
    there_and_back = root_change_intertwiner(far.target, "s2")
    assert there_and_back.verify()
    assert linalg.mat_eq(there_and_back.target.generators[1], rep.generators[1])


def test_root_change_transports_chords():
    rep = geometric_representation(TRIANGLE, 0)
    result = root_change_intertwiner(rep, 1)
    assert result.verify()
    # the target's parameters are again the geometric ones at the new root
    expected = geometric_parameters(rep.tree.with_root(1))
    assert result.target.params == expected


def test_tree_change_intertwiner_triangle():
    star = spanning_tree(TRIANGLE, 0)
    rep = build(star, geometric_parameters(star))
    path_tree = spanning_tree_from_edges(TRIANGLE, 0, [(0, 1), (1, 2)])
    result = tree_change_intertwiner(rep, path_tree)
    assert result.verify()
    assert result.target.tree.tree_edges == path_tree.tree_edges
    assert result.target.tree.root == 0
    # identity tree change
    trivial = tree_change_intertwiner(rep, star)
    assert [x.as_fraction() for x in trivial.diagonal] == [1, 1, 1]


def test_tree_change_matches_linear_solve():
    star = spanning_tree(TRIANGLE, 0)
    rep = build(star, geometric_parameters(star))
    path_tree = spanning_tree_from_edges(TRIANGLE, 0, [(0, 1), (1, 2)])
    result = tree_change_intertwiner(rep, path_tree)
    space = linalg.intertwiner_space(
        rep.ctx, rep.generators, result.target.generators)
    assert len(space) == 1
    g = result.matrix
    sol = space[0]
    # proportional solutions
    ratio = None
    for i in range(3):
        for j in range(3):
            if not sol[i][j].is_zero():
                r = g[i][j] / sol[i][j]
                assert ratio is None or r == ratio
                ratio = r
            else:
                assert g[i][j].is_zero()


def test_tree_change_on_k4():
    k4 = validate([[1, 3, 3, 3], [3, 1, 3, 3], [3, 3, 1, 3], [3, 3, 3, 1]])
    star = spanning_tree(k4, 0)
    rep = build(star, geometric_parameters(star))
    path_tree = spanning_tree_from_edges(k4, 2, [(0, 1), (1, 2), (2, 3)])
    target_tree = spanning_tree_from_edges(k4, 0, [(0, 1), (1, 2), (2, 3)])
    result = tree_change_intertwiner(rep, target_tree)
    assert result.verify()
    assert result.target.tree.root == 0


def test_discriminant_invariant_under_root_and_tree_change():
    mixed = validate([[1, 3, 3], [3, 1, 4], [3, 4, 1]])
    star = spanning_tree(mixed, 0)
    rep = build(star, geometric_parameters(star))
    disc = cartan_matrix(rep).discriminant
    for new_root in (1, 2):
        moved = root_change_intertwiner(rep, new_root)
        assert cartan_matrix(moved.target).discriminant == disc
    path_tree = spanning_tree_from_edges(mixed, 0, [(0, 1), (1, 2)])
    swapped = tree_change_intertwiner(rep, path_tree)
    assert cartan_matrix(swapped.target).discriminant == disc


def test_word_matrix_and_trace():
    rep = geometric_representation(B3, "s2")
    prod = rep.word_matrix([0, 1])
    tr = rep.word_trace([0, 1])
    assert tr == linalg.trace(rep.ctx, prod)
    # trace of a pair with coefficient alpha is rank - 4 + alpha
    assert tr == 3 - 4 + 1


def test_geometric_parameters_match_the_circuit_formula(suite_instances):
    for inst in suite_instances:
        for root in range(inst.diagram.rank):
            tree = inst.tree.with_root(root)
            params = geometric_parameters(tree)
            assert dict(params.alpha_index) == {edge: 1 for edge in inst.diagram.edges}
            assert set(params.chord_l) == set(tree.chords)
            for chord in tree.chords:
                assert params.chord_l[chord] == geometric_chord_scalar(tree, chord)


def test_tree_change_on_the_corpus_matches_the_exact_solve(suite_instances):
    rng = random.Random(8)
    for inst in suite_instances:
        rep = inst.rep
        new_tree = _random_tree(rng, inst.diagram)
        result = tree_change_intertwiner(rep, new_tree)
        root = new_tree.root
        assert result.verify()
        assert result.diagonal[root] == 1
        assert result.target.tree.tree_edges == new_tree.tree_edges
        assert result.target.root == root
        assert dict(result.target.params.alpha_index) == dict(inst.params.alpha_index)
        if new_tree.tree_edges == inst.tree.tree_edges:
            continue    # a root change only; the exact solve is kept for tree changes
        # the exact solve of A_s g = g B_s is one line, spanned by the diagonal
        (solution,) = linalg.intertwiner_space(rep.ctx, rep.generators,
                                               result.target.generators)
        scaled = linalg.mat_scale(solution, solution[root][root].invert())
        assert linalg.mat_eq(scaled, result.matrix)


def test_generators_are_the_identity_but_row_s_on_the_corpus(suite_instances):
    """Generator s is I - e_s (Cartan row s) in canonical form, every row but
    row s an identity row, and cartan_matrix reads the Cartan rows back;
    the oracle subtracts Fraction coordinates."""
    def exact(x):
        return x.num, x.den

    for inst in suite_instances:
        ctx, n = inst.rep.ctx, inst.rep.rank
        rows = cartan_rows(inst.tree, inst.params)
        for s, gen in enumerate(inst.rep.generators):
            assert isinstance(gen, tuple) and all(isinstance(row, tuple) for row in gen)
            for i in range(n):
                for t in range(n):
                    coords = [Fraction(int(i == t))] + [Fraction(0)] * (ctx.degree - 1)
                    if i == s:
                        c = rows[s][t]
                        coords = [a - Fraction(v, c.den) for a, v in zip(coords, c.power_num)]
                    assert exact(gen[i][t]) == exact(ctx.from_coeffs(coords))
        assert [[exact(x) for x in row] for row in cartan_matrix(inst.rep).entries] == \
            [[exact(x) for x in row] for row in rows]


def test_a_chord_scalar_is_inverted_once_per_build(monkeypatch):
    # irrational chord scalars on the 3-4-5 triangle: build inverts each
    # once, and the form criterion, the Gram matrix and the circuit trace
    # read both scalars of the pair off the generators, inverting nothing
    diagram = validate([[1, 3, 4], [3, 1, 5], [4, 5, 1]])
    tree = spanning_tree(diagram, 0)
    base = geometric_parameters(tree)
    ctx = base.ctx
    chord = tree.chords[0]
    geometric = base.chord_l[chord]
    l = 1 + base.alpha(*chord)
    params = base.with_chord(chord, l)
    expected = base.alpha(*chord) / l
    assert not geometric.is_rational() and not l.is_rational()
    calls = []
    invert = FieldElement.invert

    def counted(x):
        calls.append(x)
        return invert(x)

    monkeypatch.setattr(FieldElement, "invert", counted)
    theta = Automorphism.identity(ctx)
    rep = build(tree, base)
    assert calls == [geometric]
    gram = build_form(rep, theta, form_exists(rep, theta))
    assert gram.entries[chord[1]][chord[0]] == -geometric * tree_product(rep, chord[0])
    assert circuit_trace(rep, chord).matches
    assert calls == [geometric]
    other = build(tree, params)
    assert calls == [geometric, l]
    assert not form_exists(other, theta)
    assert (other.generators[chord[0]][chord[0]][chord[1]],
            other.generators[chord[1]][chord[1]][chord[0]]) == (l, expected)
    assert calls == [geometric, l]
    # chord_pair, build's reader, inverts on each call
    assert params.chord_pair(*chord) == (l, expected)
    assert params.chord_pair(*chord[::-1]) == (expected, l)
    assert calls == [geometric, l, l, l]
