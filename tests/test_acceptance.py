"""Acceptance criteria: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import get_suite
from oracles import evaluate, poly_divmod, rep_reflection
from coxrep import linalg
from coxrep.analysis import (
    characters_distinguish,
    circuit_trace,
    commutant_dimension,
    product_analysis,
)
from coxrep.cartanpoly import (
    admissible_root_indices,
    order_poly,
    order_poly_full,
    order_poly_roots,
)
from coxrep.construction import (
    ReflectionRep,
    build,
    cartan_matrix,
    geometric_parameters,
    geometric_representation,
    root_change_intertwiner,
    tree_change_intertwiner,
)
from coxrep.cyclotomic import euler_phi, field_context
from coxrep.forms import (
    Automorphism,
    build_form,
    dual_chord_coefficients_match,
    dual_representation,
    form_exists,
    form_space_dimension,
    gram_cartan_relation,
    involutive_automorphisms,
    verify_invariance,
)
from coxrep.graph import (
    chord_circuit,
    spanning_tree,
    spanning_tree_from_edges,
    validate,
)

B3 = validate([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
BC3 = validate([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
H3 = validate([[1, 3, 2], [3, 1, 5], [2, 5, 1]])
TRIANGLE = validate([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


@contextmanager
def criterion(name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({time.monotonic() - start:.2f}s)")


def as_fractions(matrix):
    return [[x.as_fraction() for x in row] for row in matrix]


def proportional(a, b) -> bool:
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


def test_criterion_1_b3_c3_golden():
    with criterion("1 (B3/C3 golden)"):
        start = time.monotonic()
        rep2 = geometric_representation(B3, "s2")
        rep3 = geometric_representation(B3, "s3")
        assert as_fractions(cartan_matrix(rep2).entries) == [
            [2, -1, 0], [-1, 2, -2], [0, -1, 2]]
        assert as_fractions(cartan_matrix(rep3).entries) == [
            [2, -1, 0], [-1, 2, -1], [0, -2, 2]]
        moved = root_change_intertwiner(rep2, "s3")
        assert moved.verify()
        assert [x.as_fraction() for x in moved.diagonal] == [2, 2, 1]
        g = moved.matrix
        ginv = linalg.inverse(rep2.ctx, g)
        assert all(x.is_integral() for row in g for x in row)
        assert not all(x.is_integral() for row in ginv for x in row)
        assert time.monotonic() - start < 1.0


def test_criterion_2_bc3_golden():
    with criterion("2 (BC3 golden)"):
        start = time.monotonic()
        rep1 = geometric_representation(BC3, "s1")
        rep2 = geometric_representation(BC3, "s2")
        data1, data2 = cartan_matrix(rep1), cartan_matrix(rep2)
        assert as_fractions(data1.entries) == [[2, -2, 0], [-1, 2, -2], [0, -1, 2]]
        assert as_fractions(data2.entries) == [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]
        assert data1.discriminant.is_zero() and data2.discriminant.is_zero()
        identity = Automorphism.identity(rep1.ctx)
        displays = {
            "s1": [[1, -1, 0], [-1, 2, -2], [0, -2, 4]],
            "s2": [[2, -1, 0], [-1, 1, -1], [0, -1, 2]],
        }
        for rep, key in ((rep1, "s1"), (rep2, "s2")):
            gram = build_form(rep, identity)
            assert verify_invariance(rep, gram)
            displayed = [[rep.ctx.from_rational(v) for v in row]
                         for row in displays[key]]
            assert proportional(gram.entries, displayed)
        moved = root_change_intertwiner(rep1, "s2")
        assert moved.verify()
        # the moved-root component rescales by its edge coefficient 2 and
        # nothing else moves: conjugation pins the intertwiner to diag(2,1,1)
        # up to a global scalar (the often-quoted diag(2,2,1) intertwines in
        # neither direction; see the verified conjugation identity here)
        assert [x.as_fraction() for x in moved.diagonal] == [2, 1, 1]
        space = linalg.intertwiner_space(rep1.ctx, rep1.generators,
                                         rep2.generators)
        assert len(space) == 1
        assert proportional(moved.matrix, space[0])
        assert time.monotonic() - start < 1.0


def test_criterion_3_h3_golden():
    with criterion("3 (H3 golden)"):
        start = time.monotonic()
        ctx = field_context(30)
        identity = Automorphism.identity(ctx)
        reps = {}
        for k in (1, 2):
            alpha = 2 + ctx.cos_element(k, 5)
            for root_label in ("s2", "s3"):
                tree = spanning_tree(H3, root_label)
                rep = build(tree, geometric_parameters(tree).with_alpha((1, 2), k))
                reps[(k, root_label)] = rep
                data = cartan_matrix(rep)
                assert data.discriminant == 6 - 2 * alpha
                e = data.entries
                if root_label == "s2":
                    expected_rows = [[2, -1, 0], [-1, 2, None], [0, -1, 2]]
                    for i in range(3):
                        for j in range(3):
                            if expected_rows[i][j] is not None:
                                assert e[i][j] == expected_rows[i][j]
                    assert e[1][2] == -alpha
                    gram = build_form(rep, identity)
                    assert verify_invariance(rep, gram)
                    expected = [[ctx.from_rational(2), ctx.from_rational(-1), ctx.zero],
                                [ctx.from_rational(-1), ctx.from_rational(2), -alpha],
                                [ctx.zero, -alpha, 2 * alpha]]
                    assert [list(r) for r in gram.entries] == \
                        [list(r) for r in expected]
                else:
                    assert e[2][1] == -alpha and e[1][2] == -1
                    gram = build_form(rep, identity)
                    assert verify_invariance(rep, gram)
                    scale = gram.entries[0][0] / 2
                    normalized = [[x / scale for x in row] for row in gram.entries]
                    # invariance forces the far corner to 6 - 2*alpha once the
                    # first corner is normalized to 2
                    assert as_fractions([[normalized[0][0], normalized[0][1]],
                                         [normalized[1][0], normalized[1][1]]]) == \
                        [[2, -1], [-1, 2]]
                    assert normalized[2][2] == 6 - 2 * alpha
                assert gram_cartan_relation(rep, gram)
        # the Galois map exchanging the two admissible coefficients carries
        # one representation onto the other, generator for generator
        alpha1 = 2 + ctx.cos_element(1, 5)
        swap = next(j for j in range(2, 30) if math.gcd(j, 30) == 1
                    and ctx.galois(j, alpha1) == 3 - alpha1)
        for root_label in ("s2", "s3"):
            rep_a = reps[(1, root_label)]
            rep_b = reps[(2, root_label)]
            for ga, gb in zip(rep_a.generators, rep_b.generators):
                mapped = [[ctx.galois(swap, x) for x in row] for row in ga]
                assert linalg.mat_eq(mapped, gb)
        assert time.monotonic() - start < 1.0


def test_criterion_4_polynomial_suite():
    with criterion("4 (polynomial family)"):
        assert [int(c) for c in order_poly(5).coeffs] == [1, -3, 1]
        assert order_poly(5) == order_poly_full(5)
        for n in range(3, 31):
            quotient, remainder = poly_divmod(order_poly_full(n), order_poly(n))
            assert remainder.is_zero()
            assert order_poly(n).degree == euler_phi(n) // 2
            ctx = field_context(n)
            roots = order_poly_roots(ctx, n)
            assert len(roots) == euler_phi(n) // 2
            for root in roots:
                assert evaluate(order_poly(n), root).is_zero()


def test_criterion_5_soundness_suite():
    with criterion("5 (randomized soundness, 200 instances)"):
        start = time.monotonic()
        suite = get_suite()
        assert len(suite) == 200
        for inst in suite:
            rep = inst.rep
            ctx = rep.ctx
            n = rep.rank
            reflections = []
            for s in range(n):
                data = rep_reflection(rep, s)   # checks involution + rank-1
                reflections.append(data)
            for s in range(n):
                for t in range(s + 1, n):
                    analysis = product_analysis(reflections[s], reflections[t])
                    assert analysis.order_class.finite_order == rep.diagram.m[s][t]
                    assert analysis.closed_form_matches
            assert commutant_dimension(rep)[0] == 1
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"soundness suite took {elapsed:.1f}s"


def test_criterion_6_equivalence_suite():
    with criterion("6 (equivalence and separation, 50 instances)"):
        rng = random.Random(77)
        suite = [inst for inst in get_suite() if inst.diagram.rank >= 2][:50]
        assert len(suite) == 50
        for inst in suite:
            rep = inst.rep
            diagram = inst.diagram
            # root change
            other_root = rng.choice([v for v in range(diagram.rank)
                                     if v != inst.tree.root])
            moved = root_change_intertwiner(rep, other_root)
            assert moved.verify()
            # single tree swap when a chord exists
            if inst.tree.chords:
                add = rng.choice(inst.tree.chords)
                circuit = chord_circuit(inst.tree, add)
                cycle_edges = [tuple(sorted((circuit.path[i], circuit.path[i + 1])))
                               for i in range(len(circuit.path) - 1)]
                remove = rng.choice(cycle_edges)
                new_edges = (inst.tree.tree_edges - {remove}) | {add}
                target = spanning_tree_from_edges(diagram, inst.tree.root, new_edges)
                swapped = tree_change_intertwiner(rep, target)
                assert swapped.verify()
            # changing any single alpha with an alternative root is detected
            for edge in diagram.edges:
                options = admissible_root_indices(diagram.edge_label(*edge))
                if len(options) < 2:
                    continue
                current = inst.params.alpha_index[edge]
                new_k = rng.choice([k for k in options if k != current])
                other = build(inst.tree, inst.params.with_alpha(edge, new_k))
                verdict = characters_distinguish(rep, other)
                assert verdict.kind == "distinct"
            # perturbing any chord scalar is detected
            for chord in inst.tree.chords:
                l = inst.params.chord_l[chord]
                perturbed = 2 * l if (l + 1).is_zero() else l + 1
                other = build(inst.tree, inst.params.with_chord(chord, perturbed))
                verdict = characters_distinguish(rep, other)
                assert verdict.kind == "distinct"


def test_criterion_7_form_suite():
    with criterion("7 (forms: oracle vs criterion)"):
        for inst in get_suite():
            rep = inst.rep
            thetas = [Automorphism.identity(rep.ctx)]
            nontrivial = [a for a in involutive_automorphisms(rep.ctx)
                          if not a.is_identity]
            if nontrivial:
                thetas.append(nontrivial[0])
            for theta in thetas:
                exists = bool(form_exists(rep, theta))
                dimension, _ = form_space_dimension(rep, theta)
                assert dimension == (1 if exists else 0), \
                    f"instance {inst.index}: criterion {exists}, oracle {dimension}"
                if exists:
                    gram = build_form(rep, theta)
                    assert verify_invariance(rep, gram)
                    if theta.is_identity:
                        assert gram_cartan_relation(rep, gram)


def _one_chord_instances(rng: random.Random, count: int):
    out = []
    while len(out) < count:
        cycle = rng.randint(3, 6)
        pendant = rng.random() < 0.4 and cycle <= 5
        rank = cycle + (1 if pendant else 0)
        rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        labels = rng.choice([(3,), (4,), (3, 4), (3, 6), (4, 5), (3, 5)])
        for i in range(cycle):
            j = (i + 1) % cycle
            m = rng.choice(labels)
            rows[i][j] = rows[j][i] = m
        if pendant:
            attach = rng.randrange(cycle)
            m = rng.choice(labels)
            rows[attach][rank - 1] = rows[rank - 1][attach] = m
        diagram = validate(rows)
        root = rng.randrange(rank)
        tree = spanning_tree(diagram, root)
        if len(tree.chords) != 1:
            continue
        params = geometric_parameters(tree)
        for edge in diagram.edges:
            options = admissible_root_indices(diagram.edge_label(*edge))
            params = params.with_alpha(edge, rng.choice(options))
        if rng.random() < 0.7:
            params = params.with_chord(
                tree.chords[0],
                params.ctx.from_rational(rng.choice([1, 2, -1, Fraction(1, 2), 3])))
        out.append(build(tree, params))
    return out


def test_criterion_8_circuit_trace_identity():
    with criterion("8 (circuit trace closed form)"):
        rep = geometric_representation(TRIANGLE, 0)
        result = circuit_trace(rep, rep.tree.chords[0])
        assert result.chordless and result.matches
        assert result.trace == 1
        rng = random.Random(4242)
        for rep in _one_chord_instances(rng, 20):
            chord = rep.tree.chords[0]
            circuit = chord_circuit(rep.tree, chord)
            assert len(circuit.path) <= 6
            result = circuit_trace(rep, chord)
            assert result.chordless
            assert result.matches


def test_criterion_9_dual_suite():
    with criterion("9 (dual representations)"):
        from coxrep.analysis import verify_good_morphism

        for inst in get_suite():
            rep = inst.rep
            dual = dual_representation(rep)
            if dual.degenerate:
                assert dual.adapted_rank() < rep.rank
                continue
            assert dual.adapted_rank() == rep.rank
            adapted = ReflectionRep(rep.tree, rep.params, dual.adapted_generators)
            assert verify_good_morphism(adapted).passed
            assert dual_chord_coefficients_match(dual)
