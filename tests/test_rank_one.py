"""Closed forms from the rank-one generators I - e_s * (Cartan row s), each
against the general route it replaced: the adapted dual generators against
the conjugation by linalg.inverse, the pair characteristic polynomials
against Faddeev-LeVerrier (linalg.charpoly), the inverse of the diagonal
equivalence intertwiner against linalg.inverse, the reflection test by an
exact factorization against the square product and nullspace, the pair
coefficients as dot products against the matrix-vector images, word
traces read off the last factor's nonzero entries against the full word
matrix, pair orders by 2 x 2 powers against n x n matrix powers, and
the pair quadratic read off the block of rs on the directing vectors'
supports against the full product."""

import collections
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from conftest import _random_tree
from hypothesis import given, settings, strategies as st
from oracles import (
    adapted_by_conjugation,
    matrix_order_check,
    pair_char_poly,
    pair_coefficients_by_images,
    reflection_by_nullspace,
)
from test_linalg import random_entry

from coxrep import analysis, forms, linalg
from coxrep.cartanpoly import OrderClass
from coxrep.analysis import (
    character_word_family,
    is_reflection,
    pair_coefficients,
    product_analysis,
)
from coxrep.io import params_to_json
from coxrep.cli import _diagonal_inverse, _json_text, _normalize_integral, main
from coxrep.construction import (
    build,
    cartan_matrix,
    equivalence_intertwiner,
    geometric_parameters,
    tree_change_intertwiner,
)
from coxrep.cyclotomic import FieldElement, field_context
from coxrep.forms import dual_representation
from coxrep.graph import spanning_tree, validate

TRIANGLE_1584 = validate([[1, 11, 9], [11, 1, 8], [9, 8, 1]])
BC3 = validate([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
AFFINE_TRIANGLE = validate([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


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


def _corpus_job(suite_instances, tmp_path):
    """A rank >= 4 corpus instance with chords and a nondegenerate dual, its
    diagram, tree and parameter files, and the command lines of the four
    analysing commands on them."""
    inst = next(i for i in suite_instances if i.diagram.rank >= 4 and i.tree.chords
                and not forms.dual_representation(i.rep).degenerate)
    diagram, labels = inst.diagram, inst.diagram.labels
    files = {"diagram": {"m": [list(row) for row in diagram.m], "labels": list(labels)},
             "tree": {"edges": [[labels[s], labels[t]]
                                for s, t in sorted(inst.tree.tree_edges)]},
             "params": params_to_json(inst.params)}
    job = []
    for name, document in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(_json_text(document))
        job += [f"--{name}", str(path)]
    job += ["--root", labels[inst.tree.root], "--format", "json"]
    commands = (["equiv", "--root2", labels[(inst.tree.root + 1) % diagram.rank]],
                ["dual"], ["verify"], ["form", "--theta", "1"])
    return inst, [command + job for command in commands]


def test_no_command_uses_a_reference_kernel_and_dual_eliminates_once(
        suite_instances, tmp_path, monkeypatch, capsys):
    # every generator, pair and word product goes through the near-identity
    # kernel and the discriminant through elimination, so mat_mul and
    # Faddeev-LeVerrier are left to the tests; dual eliminates the Cartan
    # matrix once for the discriminant and the adapted rank, degenerate
    # (bc3, affine) or not
    inst, command_lines = _corpus_job(suite_instances, tmp_path)
    reference = []
    for name in ("mat_mul", "charpoly", "_faddeev_leverrier", "inverse"):
        monkeypatch.setattr(linalg, name, lambda *args, name=name: reference.append(name))
    eliminated = []
    echelon = linalg._echelon

    def counted(ctx, rows):
        eliminated.append(rows)
        return echelon(ctx, rows)

    monkeypatch.setattr(linalg, "_echelon", counted)
    bundled = [("bc3", BC3, True), ("affine_triangle", AFFINE_TRIANGLE, True),
               ("h3", validate([[1, 3, 2], [3, 1, 5], [2, 5, 1]]), False)]
    duals = [(argv, inst.rep, False) for argv in command_lines if argv[0] == "dual"]
    duals += [(["dual", "--diagram", name, "--root", "s1", "--format", "json"],
               _geometric(diagram), degenerate) for name, diagram, degenerate in bundled]
    for argv in command_lines:
        assert main(argv) in (0, 3)
    for argv, rep, degenerate in duals:
        capsys.readouterr()
        eliminated.clear()
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        cartan = cartan_matrix(rep)
        assert eliminated == [cartan.entries]
        assert document["degenerate"] is degenerate
        assert document["adapted_row_rank"] == len(linalg.eliminate(rep.ctx, cartan.entries)[1]) \
            == (rep.rank - 1 if degenerate else rep.rank)
    capsys.readouterr()
    assert reference == []


def test_no_command_solves_a_nullspace(suite_instances, tmp_path, monkeypatch, capsys):
    # a reflection is accepted by its rank-one factorization, not by the
    # fixed hyperplane; dimensions are ranks, and bases are only built by
    # the library calls the commands do not make
    _, command_lines = _corpus_job(suite_instances, tmp_path)
    calls = []
    solve = linalg.nullspace

    def counted(ctx, a):
        calls.append(len(a))
        return solve(ctx, a)

    monkeypatch.setattr(linalg, "nullspace", counted)
    counts = {}
    for argv in command_lines:
        calls.clear()
        assert main(argv) in (0, 3)
        counts[argv[0]] = len(calls)
    capsys.readouterr()
    assert counts == {"equiv": 0, "dual": 0, "verify": 0, "form": 0}


def _rank_one(ctx, rng, n, target):
    """I + a (x) phi with a nonzero and phi . a = target."""
    a = [random_entry(rng, ctx) for _ in range(n)]
    i = rng.randrange(n)
    if a[i].is_zero():
        a[i] = ctx.from_rational(rng.choice([1, -3, 5]))
    phi = [random_entry(rng, ctx) for _ in range(n)]
    rest = sum((f * x for j, (f, x) in enumerate(zip(phi, a)) if j != i), ctx.zero)
    phi[i] = (target - rest) / a[i]
    return [[(1 if r == c else 0) + a[r] * phi[c] for c in range(n)] for r in range(n)]


def _conjugated_involution(ctx, rng, n, minus_ones):
    """P diag(-1, ..., -1, 1, ..., 1) P^-1 for a random invertible P."""
    while True:
        p = [[random_entry(rng, ctx) for _ in range(n)] for _ in range(n)]
        if not linalg.determinant_and_rank(ctx, p)[0].is_zero():
            break
    d = [[ctx.from_rational(-1 if r < minus_ones else 1) if r == c else ctx.zero
          for c in range(n)] for r in range(n)]
    return linalg.mat_mul(ctx, linalg.mat_mul(ctx, p, d), linalg.inverse(ctx, p))


def _matrix_of_kind(ctx, rng, n, kind):
    if kind == "reflection":
        return _rank_one(ctx, rng, n, -2)
    if kind == "rank one, phi(a) = 0":
        return _rank_one(ctx, rng, n, 0)
    if kind == "rank one, phi(a) != -2":
        return _rank_one(ctx, rng, n, rng.choice([-4, -1, 1, 2, Fraction(-5, 2)]))
    if kind == "conjugated reflection":
        return _conjugated_involution(ctx, rng, n, 1)
    if kind == "conjugated rank-two involution":
        return _conjugated_involution(ctx, rng, n, 2)
    if kind == "dense":
        return [[random_entry(rng, ctx) for _ in range(n)] for _ in range(n)]
    return linalg.identity(ctx, n)


def _check_against_the_oracle(ctx, m):
    data = is_reflection(ctx, m)
    expected = reflection_by_nullspace(ctx, m)
    assert (data is None) == (expected is None)
    if data is None:
        return False
    directing, hyperplane = expected
    assert data.directing == directing
    n = len(m)
    assert all(m[i][j] - (1 if i == j else 0) == data.directing[i] * data.form[j]
               for i in range(n) for j in range(n))
    # the form's kernel is the oracle's fixed hyperplane
    assert all(sum((f * x for f, x in zip(data.form, v)), ctx.zero).is_zero()
               for v in hyperplane)
    return True


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 5, 12]), st.integers(1, 4),
       st.sampled_from(["reflection", "rank one, phi(a) = 0", "rank one, phi(a) != -2",
                        "conjugated reflection", "conjugated rank-two involution",
                        "dense", "identity"]),
       st.integers(0, 2 ** 32))
def test_is_reflection_matches_the_square_and_nullspace(conductor, n, kind, seed):
    # N = 1 is the rational field; 5 and 12 are irrational of degree 2
    ctx = field_context(conductor)
    if kind == "conjugated rank-two involution" and n < 2:
        n = 2
    accepted = _check_against_the_oracle(ctx, _matrix_of_kind(ctx, random.Random(seed),
                                                              n, kind))
    if kind in ("reflection", "conjugated reflection"):
        assert accepted
    elif kind != "dense":
        assert not accepted


def test_is_reflection_matches_the_oracle_on_the_corpus_generators(suite_instances):
    assert all(_check_against_the_oracle(inst.rep.ctx, g)
               for inst in suite_instances for g in inst.rep.generators)


def test_pair_coefficients_match_the_images_on_the_corpus(suite_instances):
    # every ordered pair (s, t) of distinct generators, and s against the
    # conjugate t s t, a reflection whose directing vector is not a basis
    # vector
    checked = 0
    for inst in suite_instances:
        rep = inst.rep
        reflections = [is_reflection(rep.ctx, g) for g in rep.generators]
        for s, t in itertools.permutations(range(rep.rank), 2):
            r_s, r_t = reflections[s], reflections[t]
            assert pair_coefficients(r_s, r_t) == pair_coefficients_by_images(r_s, r_t)
            conjugate = is_reflection(rep.ctx, rep.word_matrix((t, s, t)))
            if pair_coefficients(r_s, conjugate) is not None:
                assert pair_coefficients(r_s, conjugate) == \
                    pair_coefficients_by_images(r_s, conjugate)
            checked += 1
    assert checked > 1000


def test_word_traces_match_the_word_matrices_on_the_corpus(suite_instances):
    checked = 0
    for inst in suite_instances:
        rep = inst.rep
        words = [(), *((s,) for s in range(rep.rank)), *character_word_family(rep)]
        for word in words:
            assert rep.word_trace(word) == linalg.trace(rep.ctx, rep.word_matrix(word))
            checked += 1
    assert checked > 1000


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


def test_pair_powers_match_the_matrix_powers_on_every_ordered_corpus_pair(suite_instances):
    # the 2 x 2 powers of T = [[C - 1, -p], [q, -1]] against the n x n powers
    # of rs, at the pair's label, at a non-multiple and at twice the label
    agreed = set()
    for inst in suite_instances:
        ctx = inst.rep.ctx
        reflections = [is_reflection(ctx, g) for g in inst.rep.generators]
        for s, t in itertools.permutations(range(inst.diagram.rank), 2):
            r_data, s_data = reflections[s], reflections[t]
            p, q = pair_coefficients(r_data, s_data)
            c = p * q
            if c == 4:
                continue
            pair_matrix = ((c - 1, -p), (q, -ctx.one))
            product = linalg.near_identity_mul(ctx, r_data.matrix, s_data.matrix)
            m = inst.diagram.m[s][t]
            for k in range(1, 2 * m + 1):
                verdict = analysis._matrix_order_check(ctx, pair_matrix, k)
                assert verdict == matrix_order_check(ctx, product, k), (inst.index, s, t, k)
                agreed.add(verdict)
    assert agreed == {True, False}


def test_pair_powers_match_the_literal_powers_on_every_split_of_every_order():
    # T = [[C - 1, -p], [q, -1]] for C = 4cos^2(k pi/m) = 2 + 2cos(2 pi k/m),
    # split as tree edges and chords split it (q in {1, 3, C}, p = C/q),
    # against its literal 2 x 2 powers taken one at a time, at every order
    # up to 2m; k = 0 gives C = 4, where no order holds
    cases = 0
    for m in range(1, 19):
        ctx = field_context(m)
        for k in range(m):
            c = 2 + ctx.cos_element(k, m)
            for q in [1, 3] + ([c] if c else []):
                t = ((c - 1, -(c / q)), (ctx.one * q, -ctx.one))
                for n in range(1, 2 * m + 1):
                    assert analysis._matrix_order_check(ctx, t, n) is \
                        matrix_order_check(ctx, t, n), (m, k, q, n)
                    cases += 1
    assert cases > 11000


def test_twice_the_identity_has_no_order_two():
    # T^2 = 4I is not I; T = adj(T) alone would pass, so det T = 1 is checked
    ctx = field_context(1)
    two, zero = ctx.from_rational(2), ctx.zero
    assert analysis._matrix_order_check(ctx, ((two, zero), (zero, two)), 2) is False
    assert matrix_order_check(ctx, ((two, zero), (zero, two)), 2) is False


def _check_pair_block(ctx, r, s) -> None:
    product = linalg.mat_mul(ctx, r.matrix, s.matrix)
    quadratic = analysis._pair_quadratic(ctx, analysis._pair_block(r, s))
    expected = pair_char_poly(ctx, product)
    assert analysis._times_x_minus_one(quadratic, len(product) - 2) == expected
    assert expected == tuple(linalg.charpoly(ctx, product))


def test_pair_block_quadratic_matches_the_full_product(suite_instances):
    # built generators (2 x 2 blocks), the dual's transposed generators,
    # whose directing vectors have several nonzero coordinates, and the
    # conjugates t s t
    blocks = collections.Counter()
    for inst in suite_instances:
        rep, ctx = inst.rep, inst.rep.ctx
        dual = dual_representation(rep)
        for generators in (rep.generators, dual.dual_generators):
            reflections = [is_reflection(ctx, g) for g in generators]
            for r, s in itertools.permutations(reflections, 2):
                _check_pair_block(ctx, r, s)
                blocks[len(analysis._pair_block(r, s))] += 1
        for s, t in itertools.permutations(range(rep.rank), 2):
            conjugate = is_reflection(ctx, rep.word_matrix((t, s, t)))
            _check_pair_block(ctx, is_reflection(ctx, rep.generators[s]), conjugate)
    assert blocks[2] > 1000 and any(size > 2 for size in blocks)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 5, 12]), st.integers(2, 4), st.integers(0, 2 ** 32))
def test_pair_block_quadratic_matches_the_full_product_on_generic_reflections(
        conductor, n, seed):
    ctx = field_context(conductor)
    rng = random.Random(seed)
    r, s = (is_reflection(ctx, rng.choice([_rank_one(ctx, rng, n, -2),
                                           _conjugated_involution(ctx, rng, n, 1)]))
            for _ in range(2))
    _check_pair_block(ctx, r, s)


def test_verify_inverts_nothing_and_multiplies_no_n_by_n_matrices(
        suite_instances, monkeypatch):
    # a built generator's directing vector is a unit vector, read with no
    # inversion, and each pair's quadratic comes from its 2 x 2 block
    counts = collections.Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(FieldElement, "invert")
    counted(linalg, "near_identity_mul")
    pairs = 0
    for inst in suite_instances:
        report = analysis.verify_good_morphism(inst.rep)
        assert report.passed
        pairs += sum(check.analysis is not None for check in report.checks)
    assert pairs > 500
    assert counts == {}


def test_a_finite_class_with_coefficient_4_is_an_order_mismatch(monkeypatch):
    # independent directing vectors with C = 4 (the affine A1 pair): W U is
    # singular and T = [[3, -2], [2, -1]] is unipotent, so no power check on
    # T may run; a classification claiming a finite order raises
    ctx = field_context(1)
    r = is_reflection(ctx, [[ctx.from_rational(x) for x in row] for row in [[-1, 2], [0, 1]]])
    s = is_reflection(ctx, [[ctx.from_rational(x) for x in row] for row in [[1, 0], [2, -1]]])
    assert pair_coefficients(r, s) == (2, 2)
    assert product_analysis(r, s).order_class.kind == "unipotent"
    product = linalg.near_identity_mul(ctx, r.matrix, s.matrix)
    two_by_two = tuple(tuple(ctx.from_rational(x) for x in row) for row in [[3, -2], [2, -1]])
    for k in range(1, 7):
        assert analysis._matrix_order_check(ctx, two_by_two, k) is \
            matrix_order_check(ctx, product, k) is False
    monkeypatch.setattr(analysis, "classify_pair", lambda *args: OrderClass.finite(3))
    with pytest.raises(analysis.OrderMismatch):
        product_analysis(r, s)


def test_no_command_returns_to_the_n2_routes(suite_instances, tmp_path, monkeypatch, capsys):
    # verify and form build no n^2-unknown system, the order check multiplies
    # no n x n matrices, and the intertwining checks of dual, equiv and form
    # compare no matrices: they all go through linalg.intertwines; verify
    # makes none, as the commutant's lower bound 1 needs no check
    _, command_lines = _corpus_job(suite_instances, tmp_path)
    # geometric K4 (three chords): an equivalent root change and a form
    bundled = ["--diagram", "k4", "--root", "s1", "--format", "json"]
    command_lines = [argv for argv in command_lines if argv[0] in ("dual", "verify")]
    command_lines += [["equiv", "--root2", "s3"] + bundled, ["form", "--theta", "1"] + bundled]
    counts = collections.Counter()
    in_order_check = []

    def counted(module, name, while_checking=False):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if in_order_check:
                counts["order check " + name] += 1
            if while_checking:
                in_order_check.append(True)
                try:
                    return real(*args, **kwargs)
                finally:
                    in_order_check.pop()
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("_sylvester_rows", "near_identity_mul", "mat_eq", "intertwines"):
        counted(linalg, name)
    counted(analysis, "_matrix_order_check", while_checking=True)
    seen = {}
    for argv in command_lines:
        counts.clear()
        capsys.readouterr()
        assert main(argv) == 0
        seen[argv[0]] = dict(counts)
        if argv[0] in ("equiv", "form"):
            document = json.loads(capsys.readouterr().out)
            assert document.get("verdict", "equivalent") == "equivalent"
            assert document.get("exists", True)
    capsys.readouterr()
    assert all(seen[c].get("intertwines", 0) >= 1 for c in ("dual", "equiv", "form"))
    assert seen["verify"].get("intertwines", 0) == 0
    assert seen["verify"]["_matrix_order_check"] >= 1
    assert all(seen[c].get("_sylvester_rows", 0) == 0 for c in ("verify", "form"))
    assert seen["verify"].get("order check near_identity_mul", 0) == 0
    assert all(seen[c].get("mat_eq", 0) == 0 for c in ("dual", "equiv"))
