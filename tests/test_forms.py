"""Invariant forms: existence, Gram matrices, the nullspace oracle, duals."""

import collections
import math
import random
from fractions import Fraction

import pytest
from oracles import adapted_by_inversions, form_exists_by_circuits, root_path_product

from coxrep import construction, forms, graph, linalg
from coxrep.analysis import verify_good_morphism
from coxrep.construction import (
    build,
    cartan_matrix,
    geometric_parameters,
    geometric_representation,
)
from coxrep.cyclotomic import field_context
from coxrep.forms import (
    Automorphism,
    NoInvariantForm,
    build_form,
    dual_chord_coefficients_match,
    dual_representation,
    form_exists,
    form_space_dimension,
    gram_cartan_relation,
    involutive_automorphisms,
    tree_product,
    verify_invariance,
)
from coxrep.graph import spanning_tree, validate

B3 = validate([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
BC3 = validate([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
H3 = validate([[1, 3, 2], [3, 1, 5], [2, 5, 1]])
TRIANGLE = validate([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
# a 5-cycle 0-1-2-3-4 with the edge 1-3: rooted at 0 the tree has depth 2
# and the chords (2, 3) and (3, 4)
PENTAGON = validate([[1, 4, 2, 2, 3], [4, 1, 5, 3, 2], [2, 5, 1, 3, 2],
                     [2, 3, 3, 1, 4], [3, 2, 2, 4, 1]])


def as_fractions(matrix):
    return [[x.as_fraction() for x in row] for row in matrix]


def proportional(a, b):
    ratio = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if y.is_zero():
                if not x.is_zero():
                    return False
                continue
            r = x / y
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None and not ratio.is_zero()


def test_tree_products_b3():
    rep = geometric_representation(B3, "s2")
    assert tree_product(rep, 1) == 1
    assert tree_product(rep, 0) == 1
    assert tree_product(rep, 2) == 2
    rep3 = geometric_representation(H3, "s2")
    alpha = 2 + rep3.ctx.cos_element(1, 5)
    assert tree_product(rep3, 2) == alpha


def test_form_exists_tree_diagram_identity():
    rep = geometric_representation(B3, "s2")
    theta = Automorphism.identity(rep.ctx)
    assert form_exists(rep, theta)
    assert form_space_dimension(rep, theta)[0] == 1


def test_form_exists_geometric_chordful():
    rep = geometric_representation(TRIANGLE, 0)
    theta = Automorphism.identity(rep.ctx)
    assert form_exists(rep, theta)
    assert form_space_dimension(rep, theta)[0] == 1


def test_form_blocked_by_unbalanced_chord():
    tree = spanning_tree(TRIANGLE, 0)
    params = geometric_parameters(tree)
    rep = build(tree, params.with_chord((1, 2), params.ctx.from_rational(2)))
    theta = Automorphism.identity(rep.ctx)
    existence = form_exists(rep, theta)
    assert not existence
    assert existence.obstruction == "chord_balance"
    assert form_space_dimension(rep, theta)[0] == 0
    with pytest.raises(NoInvariantForm):
        build_form(rep, theta)


def test_b3_gram_root_s2_exact():
    rep = geometric_representation(B3, "s2")
    gram = build_form(rep, Automorphism.identity(rep.ctx))
    assert as_fractions(gram.entries) == [[2, -1, 0], [-1, 2, -2], [0, -2, 4]]
    assert verify_invariance(rep, gram)
    assert gram_cartan_relation(rep, gram)


def test_b3_gram_root_s3_up_to_scalar():
    rep = geometric_representation(B3, "s3")
    gram = build_form(rep, Automorphism.identity(rep.ctx))
    ctx = rep.ctx
    displayed = [[ctx.from_rational(v) for v in row]
                 for row in [[2, -1, 0], [-1, 2, -1], [0, -1, 1]]]
    assert proportional(gram.entries, displayed)
    assert verify_invariance(rep, gram)


def test_bc3_grams_up_to_scalar():
    expected = {
        "s1": [[1, -1, 0], [-1, 2, -2], [0, -2, 4]],
        "s2": [[2, -1, 0], [-1, 1, -1], [0, -1, 2]],
    }
    for root, display in expected.items():
        rep = geometric_representation(BC3, root)
        gram = build_form(rep, Automorphism.identity(rep.ctx))
        ctx = rep.ctx
        displayed = [[ctx.from_rational(v) for v in row] for row in display]
        assert proportional(gram.entries, displayed)
        assert verify_invariance(rep, gram)
        assert gram_cartan_relation(rep, gram)


def test_h3_gram_root_s2_exact():
    rep = geometric_representation(H3, "s2")
    ctx = rep.ctx
    alpha = 2 + ctx.cos_element(1, 5)
    gram = build_form(rep, Automorphism.identity(ctx))
    expected = [[ctx.from_rational(2), ctx.from_rational(-1), ctx.zero],
                [ctx.from_rational(-1), ctx.from_rational(2), -alpha],
                [ctx.zero, -alpha, 2 * alpha]]
    assert [list(r) for r in gram.entries] == [list(r) for r in expected]
    assert verify_invariance(rep, gram)
    assert gram_cartan_relation(rep, gram)


def test_h3_gram_root_s3_forced_corner():
    # invariance pins the Gram matrix up to one scalar; normalized with
    # corner 2 the far diagonal entry is 6 - 2*alpha (equal to 2/alpha)
    rep = geometric_representation(H3, "s3")
    ctx = rep.ctx
    alpha = 2 + ctx.cos_element(1, 5)
    gram = build_form(rep, Automorphism.identity(ctx))
    assert verify_invariance(rep, gram)
    scale = gram.entries[0][0] / 2
    normalized = [[x / scale for x in row] for row in gram.entries]
    assert normalized[2][2] == 6 - 2 * alpha
    assert normalized[2][2] == 2 * alpha.invert()
    assert normalized[0][1] == -1 and normalized[1][2] == -1


def test_gram_determinant_equals_scaled_discriminant():
    for diagram, root in [(B3, "s2"), (H3, "s3"), (TRIANGLE, 0)]:
        rep = geometric_representation(diagram, root)
        gram = build_form(rep, Automorphism.identity(rep.ctx))
        det = linalg.determinant_and_rank(rep.ctx, gram.entries)[0]
        prod = rep.ctx.one
        for i in range(rep.rank):
            prod = prod * (gram.entries[i][i] * Fraction(1, 2))
        disc = cartan_matrix(rep).discriminant
        assert det == prod * disc


def test_invariance_detects_perturbation():
    rep = geometric_representation(B3, "s2")
    gram = build_form(rep, Automorphism.identity(rep.ctx))
    broken = [list(r) for r in gram.entries]
    broken[0][2] = rep.ctx.one
    from coxrep.forms import GramMatrix
    assert not verify_invariance(rep, GramMatrix(linalg.mat_freeze(broken), gram.theta))
    zero = GramMatrix(linalg.mat_freeze(
        [[rep.ctx.zero] * 3 for _ in range(3)]), gram.theta)
    assert verify_invariance(rep, zero)
    assert zero.is_zero()


def twisted_form():
    """A theta-twisted form, theta(G) != G: on the triangle with labels 3,
    5 and 3 (conductor 30), the chord scalar l0 * c / theta(c), for the
    geometric l0 and theta of index 11, still balances, since
    (c / theta(c)) * theta(c / theta(c)) = 1."""
    tree = spanning_tree(validate([[1, 3, 5], [3, 1, 3], [5, 3, 1]]), 0)
    params = geometric_parameters(tree)
    ctx = params.ctx
    theta = Automorphism.from_index(ctx, 11)
    chord = tree.chords[0]
    twist = ctx.generator / theta(ctx.generator)
    rep = build(tree, params.with_chord(chord, params.chord_l[chord] * twist))
    gram = build_form(rep, theta)
    assert not linalg.mat_eq(theta.apply_matrix(gram.entries), gram.entries)
    return rep, gram


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (2, 2), (1, 2)])
def test_invariance_detects_perturbation_of_a_twisted_form(entry):
    from coxrep.forms import GramMatrix

    rep, gram = twisted_form()
    assert verify_invariance(rep, gram)
    broken = [list(r) for r in gram.entries]
    i, j = entry
    broken[i][j] = broken[i][j] + 1
    perturbed = GramMatrix(linalg.mat_freeze(broken), gram.theta)
    # a rational change on the diagonal keeps the theta-hermitian symmetry,
    # so only M^T G theta(M) = G can reject it
    if i == j:
        assert linalg.mat_eq(linalg.transpose(gram.theta.apply_matrix(broken)), broken)
    assert not verify_invariance(rep, perturbed)


def test_nontrivial_theta_on_h3():
    rep = geometric_representation(H3, "s2")
    ctx = rep.ctx
    alpha = 2 + ctx.cos_element(1, 5)
    # the map swapping the two admissible coefficients has order four on the
    # doubled-conductor ambient field, so it is rejected, and the nullspace
    # oracle agrees that no form survives the twisted invariance system
    swapping = Automorphism.from_index(ctx, 7)
    assert swapping(alpha) == 3 - alpha
    assert not swapping.is_involution()
    existence = form_exists(rep, swapping)
    assert not existence and existence.obstruction == "not_involution"
    assert form_space_dimension(rep, swapping)[0] == 0
    # every ambient involution fixes alpha here; forms exist for all of them
    fixing = [a for a in involutive_automorphisms(ctx) if not a.is_identity]
    assert fixing, "expected a nontrivial ambient involution for conductor 30"
    for theta in fixing:
        assert theta(alpha) == alpha
        assert form_exists(rep, theta)
        assert form_space_dimension(rep, theta)[0] == 1
        gram = build_form(rep, theta)
        assert verify_invariance(rep, gram)


def _invariance_system_nullity(rep, theta):
    """Nullity of the direct system M^T G theta(M) = G in the entries of G."""
    ctx, n = rep.ctx, rep.rank
    rows = []
    for mat in rep.generators:
        tm = theta.apply_matrix(mat)
        for a in range(n):
            for b in range(n):
                row = [ctx.zero] * (n * n)
                for r in range(n):
                    for s in range(n):
                        row[r * n + s] = mat[r][a] * tm[s][b]
                row[a * n + b] = row[a * n + b] - 1
                rows.append(row)
    return n * n - len(linalg.eliminate(ctx, rows)[1])


def test_form_space_dimension_matches_direct_invariance_system():
    # M^T G theta(M) = G and M^T G = G theta(M) have the same solutions,
    # for every automorphism theta, involutive or not
    tree = spanning_tree(TRIANGLE, 0)
    params = geometric_parameters(tree)
    unbalanced = build(tree, params.with_chord((1, 2), params.ctx.from_rational(7)))
    reps = [geometric_representation(H3, "s2"), geometric_representation(BC3, "s1"),
            geometric_representation(TRIANGLE, 1), unbalanced]
    for rep in reps:
        ctx = rep.ctx
        indices = {ctx.galois_index(j) for j in range(1, ctx.N + 1)
                   if math.gcd(j, ctx.N) == 1}
        for theta in (Automorphism(ctx, j) for j in sorted(indices)):
            assert form_space_dimension(rep, theta)[0] == \
                _invariance_system_nullity(rep, theta), (rep, theta)


def test_rank_one_form():
    rep = geometric_representation(validate([[1]]), 0)
    gram = build_form(rep, Automorphism.identity(rep.ctx))
    assert as_fractions(gram.entries) == [[2]]
    assert gram_cartan_relation(rep, gram)


def test_dual_h3_nondegenerate():
    rep = geometric_representation(H3, "s2")
    dual = dual_representation(rep)
    assert not dual.degenerate
    assert dual.discriminant == cartan_matrix(rep).discriminant
    assert dual.adapted_rank() == 3
    from coxrep.construction import ReflectionRep
    adapted = ReflectionRep(rep.tree, rep.params, dual.adapted_generators)
    assert verify_good_morphism(adapted).passed


def test_dual_bc3_degenerate():
    rep = geometric_representation(BC3, "s1")
    dual = dual_representation(rep)
    assert dual.degenerate
    assert dual.adapted_generators is None
    assert dual.adapted_rank() == 2 < 3


def test_dual_rank_one_self_dual():
    rep = geometric_representation(validate([[1]]), 0)
    dual = dual_representation(rep)
    assert not dual.degenerate
    assert as_fractions(dual.dual_generators[0]) == [[-1]]
    assert as_fractions(dual.adapted_generators[0]) == [[-1]]


def test_dual_chord_formula_circuits():
    # the all-3 triangle is affine (degenerate); mixed labels are not
    mixed = validate([[1, 3, 3], [3, 1, 4], [3, 4, 1]])
    rep = geometric_representation(mixed, 0)
    dual = dual_representation(rep)
    assert not dual.degenerate
    assert dual_chord_coefficients_match(dual)
    adapted = type(rep)(rep.tree, rep.params, dual.adapted_generators)
    assert verify_good_morphism(adapted).passed
    # non-geometric chord scalar on the affine triangle also de-degenerates it
    tree = spanning_tree(TRIANGLE, 0)
    params = geometric_parameters(tree)
    rep2 = build(tree, params.with_chord((1, 2), params.ctx.from_rational(2)))
    dual2 = dual_representation(rep2)
    assert not dual2.degenerate
    assert dual_chord_coefficients_match(dual2)


def test_dual_affine_triangle_degenerate():
    rep = geometric_representation(TRIANGLE, 0)
    dual = dual_representation(rep)
    assert dual.degenerate
    assert dual.adapted_rank() == 2


def test_dual_generators_are_transposes_with_same_orders():
    rep = geometric_representation(B3, "s3")
    dual = dual_representation(rep)
    for g, d in zip(rep.generators, dual.dual_generators):
        assert linalg.mat_eq(linalg.transpose(g), d)
    from coxrep.construction import ReflectionRep
    as_rep = ReflectionRep(rep.tree, rep.params, dual.dual_generators)
    assert verify_good_morphism(as_rep).passed


def test_geometric_form_exists_small_diagrams_labels_to_eight():
    # with geometric parameters the identity-twisted form exists on every
    # connected diagram; sampled over ranks <= 6 and labels <= 8
    rng = random.Random(99)
    for _ in range(30):
        rank = rng.randint(2, 6)
        rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        edges = {(rng.randrange(v), v) for v in range(1, rank)}
        extras = [(i, j) for i in range(rank) for j in range(i + 1, rank)
                  if (i, j) not in edges]
        rng.shuffle(extras)
        edges.update(extras[:rng.choice([0, 1, 1, 2])])
        for i, j in edges:
            rows[i][j] = rows[j][i] = rng.randint(3, 8)
        diagram = validate(rows)
        rep = geometric_representation(diagram, rng.randrange(rank))
        theta = Automorphism.identity(rep.ctx)
        assert form_exists(rep, theta)
        gram = build_form(rep, theta)
        assert verify_invariance(rep, gram)


def test_characters_equivalent_across_roots():
    rep2 = geometric_representation(B3, "s2")
    rep3 = geometric_representation(B3, "s3")
    from coxrep.analysis import characters_distinguish
    verdict = characters_distinguish(rep2, rep3)
    assert verdict.kind == "equivalent"
    assert verdict.intertwiner is not None
    assert not linalg.determinant_and_rank(rep2.ctx, verdict.intertwiner)[0].is_zero()


def test_bc3_arrow_patterns_exhaust_root_choices():
    # exploratory: arrow directions derive from the Gram diagonal ratios
    # along the chain; enumerating every available choice (the coefficient
    # per edge is forced, only the tree root varies) yields three of the
    # four patterns, and no choice produces short-long-short
    def pattern(root):
        rep = geometric_representation(BC3, root)
        gram = build_form(rep, Automorphism.identity(rep.ctx))
        d = [gram.entries[i][i] for i in range(3)]
        return (float(d[0]) < float(d[1]), float(d[1]) < float(d[2]))

    seen = {pattern(root) for root in range(3)}
    assert seen == {(True, True), (False, True), (False, False)}
    assert (True, False) not in seen


def test_involutive_automorphisms_identity_first():
    ctx = field_context(30)
    autos = involutive_automorphisms(ctx)
    assert autos[0].is_identity
    assert all(a.squared().is_identity for a in autos)


def test_form_criterion_matches_the_circuit_balance_on_the_corpus(suite_instances):
    # every Galois automorphism, the 523 involutions and the others
    verdicts = collections.Counter()
    for inst in suite_instances:
        ctx = inst.rep.ctx
        indices = {ctx.galois_index(j) for j in range(1, ctx.N + 1) if math.gcd(j, ctx.N) == 1}
        for j in sorted(indices):
            theta = Automorphism(ctx, j)
            existence = form_exists(inst.rep, theta)
            assert existence == form_exists_by_circuits(inst.rep, theta)
            verdicts[existence.obstruction] += 1
    assert sum(verdicts.values()) > 1000
    assert all(verdicts[obstruction] for obstruction in
               (None, "not_involution", "moves_alpha", "chord_balance"))


def test_dual_scalings_and_adapted_generators_match_the_inversions_on_the_corpus(
        suite_instances):
    checked = 0
    for inst in suite_instances:
        rep = inst.rep
        products = [root_path_product(rep, s) for s in range(rep.rank)]
        assert list(rep.tree_products) == products
        dual = dual_representation(rep)
        assert list(dual.scalings) == products
        if not dual.degenerate:
            expected = adapted_by_inversions(rep)
            assert all(linalg.mat_eq(a, b) for a, b in zip(dual.adapted_generators, expected))
            checked += 1
    assert checked > 150


def test_the_form_criterion_and_gram_matrix_walk_the_tree_once(monkeypatch):
    rep = geometric_representation(PENTAGON)
    assert rep.tree.chords == ((2, 3), (3, 4)) and max(rep.tree.depth) == 2
    walks = []
    rescaling = construction.tree_rescaling

    def counted(*args):
        walks.append(args)
        return rescaling(*args)

    def no_circuit(*args):
        raise AssertionError("the form criterion walked a chord's circuit")

    for module in (construction, forms):
        monkeypatch.setattr(module, "tree_rescaling", counted)
    monkeypatch.setattr(graph, "chord_circuit", no_circuit)
    monkeypatch.setattr(forms, "chord_circuit", no_circuit, raising=False)
    theta = Automorphism.identity(rep.ctx)
    existence = form_exists(rep, theta)
    assert existence
    gram = build_form(rep, theta, existence)
    products = [tree_product(rep, s) for s in range(rep.rank)]
    assert len(walks) == 1
    assert [gram.entries[s][s] for s in range(rep.rank)] == [2 * p for p in products]
    assert verify_invariance(rep, gram)
    assert products == [root_path_product(rep, s) for s in range(rep.rank)]
