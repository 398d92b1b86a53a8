"""The certified dimension route: a rank over F_p bounds the dimension from
above, an exactly checked witness from below, and exact elimination decides
when the bounds stay apart, by the n^2-unknown route of tests/oracles.py
and by the n-unknown reduced_dimension, which must agree on dimension and
route; the rank-one intertwining check against the near-identity products.
Also the elimination determinant and rank against Faddeev-LeVerrier and
the pivots of linalg.eliminate, the reference product mat_mul against the
term-by-term product, and the near-identity kernel against mat_mul."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import evaluate, intertwiner_dimension, is_intertwiner

from conftest import _random_tree
from coxrep import cyclotomic, linalg
from coxrep.analysis import commutant_dimension
from coxrep.construction import (
    build,
    cartan_matrix,
    geometric_parameters,
    geometric_representation,
    tree_change_intertwiner,
)
from coxrep.cyclotomic import field_context, is_prime
from coxrep.forms import (
    Automorphism,
    FormExistence,
    build_form,
    dual_representation,
    form_exists,
    form_space_dimension,
    involutive_automorphisms,
)
from coxrep.graph import spanning_tree, validate

B3 = validate([[1, 3, 2], [3, 1, 4], [2, 4, 1]])
H3 = validate([[1, 3, 2], [3, 1, 5], [2, 5, 1]])
TRIANGLE = validate([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


def path_plus_chord(rank):
    """The path s1 - ... - s_rank, labels 3, closed by the chord s1-s_rank
    labelled 4."""
    rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        rows[i][i + 1] = rows[i + 1][i] = 3
    rows[0][rank - 1] = rows[rank - 1][0] = 4
    return validate(rows)


def rational_matrix(ctx, rows):
    return [[ctx.from_rational(x) for x in row] for row in rows]


def diagonal_and_swap(ctx, a, b):
    """diag(a, b) and the swap: for a != b only the scalars commute with both."""
    return [rational_matrix(ctx, [[a, 0], [0, b]]), rational_matrix(ctx, [[0, 1], [1, 0]])]


def sylvester_nullity(ctx, gens_a, gens_b):
    """n^2 minus the pivots of one elimination of the n^2-unknown system."""
    n = len(gens_a[0])
    return n * n - len(linalg.eliminate(ctx, linalg._sylvester_rows(ctx.zero, gens_a, gens_b))[1])


def use_split_primes_above(monkeypatch, ctx, floor):
    """Make ctx's split primes the ones just above floor instead of 2^31."""
    real = cyclotomic._split_prime_above
    monkeypatch.setattr(cyclotomic, "_split_prime_above",
                        lambda n, after: real(n, floor if after == 2 ** 31 else after))
    monkeypatch.setattr(ctx, "_modular", [])


def test_split_primes_and_the_image_of_c():
    for n in (1, 2, 5, 7, 24, 30, 1260):
        ctx = field_context(n)
        primes = [ctx.modular_image(k)[0] for k in range(3)]
        assert 2 ** 31 < primes[0] < primes[1] < primes[2]
        assert all(is_prime(p) and (p - 1) % n == 0 for p in primes)
        # no split prime is skipped between the first and the second
        assert not any(is_prime(q) for q in range(primes[0] + n, primes[1], n))
        p, powers = ctx.modular_image(0)
        assert len(powers) == ctx.degree and powers[0] == 1
        c = powers[1] if ctx.degree > 1 else (-int(ctx.min_poly.coeffs[0])) % p
        assert int(evaluate(ctx.min_poly, c)) % p == 0


def test_reduction_mod_p_is_a_ring_map():
    ctx = field_context(35)
    p = ctx.modular_image(0)[0]
    rng = random.Random(5)

    def element():
        return ctx.from_coeffs([rng.randint(-9, 9) for _ in range(ctx.degree)]) \
            * rng.choice([1, 2, 3, 7])

    for _ in range(20):
        x, y = element(), element()
        assert (x * y).residue(0) == x.residue(0) * y.residue(0) % p
        assert (x + y).residue(0) == (x.residue(0) + y.residue(0)) % p


def test_commutant_closes_by_the_identity_mod_p():
    for diagram, root in ((B3, 1), (H3, 2), (TRIANGLE, 0), (validate([[1]]), 0)):
        rep = geometric_representation(diagram, root)
        p = rep.ctx.modular_image(0)[0]
        assert commutant_dimension(rep) == (1, f"mod {p}")


@pytest.mark.parametrize("witness", ["zero", "matrix unit"])
def test_a_witness_that_fails_the_exact_check_is_rejected(witness):
    rep = geometric_representation(B3, 1)
    ctx = rep.ctx
    w = [[ctx.zero] * 3 for _ in range(3)] if witness == "zero" else \
        [[ctx.one if (i, j) == (0, 0) else ctx.zero for j in range(3)] for i in range(3)]
    assert not is_intertwiner(ctx, rep.generators, rep.generators, w)
    # the lower bound stays 0 and the upper bound 1: exact elimination decides
    assert intertwiner_dimension(ctx, rep.generators, rep.generators, w) == \
        (1, "exact")


def test_dimension_zero_needs_no_witness():
    tree = spanning_tree(TRIANGLE, 0)
    params = geometric_parameters(tree)
    rep = build(tree, params.with_chord((1, 2), params.ctx.from_rational(7)))
    p = rep.ctx.modular_image(0)[0]
    assert form_space_dimension(rep, Automorphism.identity(rep.ctx)) == (0, f"mod {p}")


def test_an_unlucky_prime_moves_on_to_the_next(monkeypatch):
    # diag(1, 8) is the identity mod 7, so mod 7 every matrix commuting with
    # the swap seems to commute with both: the upper bound 2 misses the
    # lower bound 1, and the next prime, 11, closes it
    ctx = field_context(1)
    use_split_primes_above(monkeypatch, ctx, 6)
    gens = diagonal_and_swap(ctx, 1, 8)
    assert intertwiner_dimension(ctx, gens, gens, linalg.identity(ctx, 2)) == \
        (1, "mod 11")


def test_two_unlucky_primes_fall_back_to_exact_elimination(monkeypatch):
    ctx = field_context(1)
    use_split_primes_above(monkeypatch, ctx, 6)
    gens = diagonal_and_swap(ctx, 1, 1 + 7 * 11)
    assert intertwiner_dimension(ctx, gens, gens, linalg.identity(ctx, 2)) == \
        (1, "exact")


def test_unlucky_primes_on_a_built_representation(monkeypatch):
    # the chord scalar 1 + 7*13 is the geometric one, 1, mod 7 and mod 13
    tree = spanning_tree(TRIANGLE, 0)
    params = geometric_parameters(tree)
    rep = build(tree, params.with_chord((1, 2), params.ctx.from_rational(1 + 7 * 13)))
    ctx = rep.ctx
    theta = Automorphism.identity(ctx)
    assert ctx.N == 6
    use_split_primes_above(monkeypatch, ctx, 6)
    assert [ctx.modular_image(k)[0] for k in range(3)] == [7, 13, 19]
    assert form_space_dimension(rep, theta) == (0, "exact")
    assert sylvester_nullity(ctx, [linalg.transpose(m) for m in rep.generators],
                             list(rep.generators)) == 0


def test_a_denominator_divisible_by_p_moves_on_to_the_next_prime():
    ctx = field_context(1)
    p1, p2, p3 = (ctx.modular_image(k)[0] for k in range(3))
    eye = linalg.identity(ctx, 2)
    gens = diagonal_and_swap(ctx, Fraction(1, p1), 1)
    assert intertwiner_dimension(ctx, gens, gens, eye) == (1, f"mod {p2}")
    # a skipped prime is not a try: past two skips the third prime decides
    gens = diagonal_and_swap(ctx, Fraction(1, p1 * p2), 1)
    assert intertwiner_dimension(ctx, gens, gens, eye) == (1, f"mod {p3}")


def test_a_wrong_form_verdict_cannot_close_the_bounds(monkeypatch):
    from coxrep import forms

    # no form, but the criterion claims one: its Gram matrix fails the
    # exact check, and the modular bound alone gives dimension 0
    tree = spanning_tree(TRIANGLE, 0)
    params = geometric_parameters(tree)
    unbalanced = build(tree, params.with_chord((1, 2), params.ctx.from_rational(7)))
    monkeypatch.setattr(forms, "form_exists", lambda rep, theta: FormExistence(True))
    theta = Automorphism.identity(unbalanced.ctx)
    assert form_space_dimension(unbalanced, theta)[0] == 0
    # a form, but the criterion denies it: the bounds 0 and 1 stay apart
    monkeypatch.setattr(forms, "form_exists",
                        lambda rep, theta: FormExistence(False, "chord_balance"))
    rep = geometric_representation(B3, 1)
    assert form_space_dimension(rep, Automorphism.identity(rep.ctx)) == (1, "exact")


def test_rank_8_path_plus_chord_matches_exact_elimination():
    rep = geometric_representation(path_plus_chord(8), 0)
    ctx = rep.ctx
    gens = rep.generators
    theta = Automorphism.identity(ctx)
    dim, route = commutant_dimension(rep)
    assert route.startswith("mod ")
    assert dim == sylvester_nullity(ctx, gens, gens) == 1
    dim, route = form_space_dimension(rep, theta)
    assert route.startswith("mod ")
    transposes = [linalg.transpose(m) for m in gens]
    assert dim == sylvester_nullity(ctx, transposes, list(gens)) == 1


def test_rank_10_path_plus_chord_by_the_modular_route():
    rep = geometric_representation(path_plus_chord(10), 0)
    p = rep.ctx.modular_image(0)[0]
    assert commutant_dimension(rep) == (1, f"mod {p}")
    assert form_space_dimension(rep, Automorphism.identity(rep.ctx)) == (1, f"mod {p}")


def test_row_primitive_rescales_like_the_rational_factor():
    ctx = field_context(7)
    rng = random.Random(3)
    for _ in range(50):
        row = [ctx.from_coeffs([Fraction(rng.randint(-40, 40), rng.choice([1, 2, 6, 9]))
                                for _ in range(ctx.degree)]) * rng.choice([0, 1, 4])
               for _ in range(6)]
        factor = linalg.primitive_factor(row)
        expected = [x * factor for x in row]
        got, got_factor = linalg._row_primitive(row)
        assert [(x.num, x.den) for x in got] == [(x.num, x.den) for x in expected]
        assert got_factor == factor


def term_by_term_product(ctx, a, b):
    """The reference product: one normalized FieldElement product and sum
    per term, skipping zero factors."""
    out = [[ctx.zero] * len(b[0]) for _ in a]
    for row, acc in zip(a, out):
        for v, brow in zip(row, b):
            if v.is_zero():
                continue
            for j, w in enumerate(brow):
                if not w.is_zero():
                    acc[j] = acc[j] + v * w
    return out


def exact(m):
    return [[(x.num, x.den) for x in row] for row in m]


def random_entry(rng, ctx):
    """Zero, a rational or an irrational element, with denominators other
    than 1, negative coordinates and coordinates at a power-of-two boundary."""
    kind = rng.choice(["zero", "rational", "irrational", "irrational", "boundary"])
    if kind == "zero":
        return ctx.zero
    den = rng.choice([1, 1, 2, 3, 12, 35])
    if kind == "rational":
        return ctx.from_rational(Fraction(rng.randint(-50, 50), den))
    top = rng.randrange(ctx.degree)
    if kind == "boundary":
        b = rng.choice([7, 8, 15, 16, 31, 32, 64])
        magnitudes = [2 ** b - 1, 2 ** b]
    else:
        magnitudes = range(10)

    def value():
        return rng.choice([-1, 1]) * rng.choice(magnitudes)

    return ctx.from_coeffs([Fraction(value() if rng.random() < 0.7 else 0, den)
                            for _ in range(top)] + [Fraction(value() or 1, den)])


@pytest.mark.parametrize("n", [1, 5, 12, 60, 280, 1260])
def test_mat_mul_matches_the_term_by_term_product(n):
    ctx = field_context(n)
    rng = random.Random(n)
    shapes = [(1, 1, 1), (3, 1, 1), (1, 3, 1), (4, 2, 1), (2, 3, 4), (3, 3, 3)]
    for rows, inner, cols in shapes * (3 if ctx.degree < 100 else 1):
        a = [[random_entry(rng, ctx) for _ in range(inner)] for _ in range(rows)]
        b = [[random_entry(rng, ctx) for _ in range(cols)] for _ in range(inner)]
        assert exact(linalg.mat_mul(ctx, a, b)) == exact(term_by_term_product(ctx, a, b))


@pytest.mark.parametrize("n, bits_a, bits_b", [(1, 7, 7), (5, 6, 7)])
def test_mat_mul_sums_that_fill_a_slot(n, bits_a, bits_b):
    # three terms of equal sign, each with every coordinate at 2^b - 1: the
    # largest cell coordinate, 3 * (2^bits_a - 1) * (2^bits_b - 1) times the
    # number of coordinates, needs every bit of a slot whose width is a
    # whole number of bytes
    ctx = field_context(n)
    for sign in (1, -1):
        a = [[ctx.from_coeffs([sign * (2 ** bits_a - 1)] * ctx.degree)] * 3]
        b = [[ctx.from_coeffs([2 ** bits_b - 1] * ctx.degree)]] * 3
        assert exact(linalg.mat_mul(ctx, a, b)) == exact(term_by_term_product(ctx, a, b))


def test_mat_mul_of_matrices_with_no_nonzero_entry_or_one_slot():
    ctx = field_context(12)
    zero = [[ctx.zero] * 2 for _ in range(2)]
    assert exact(linalg.mat_mul(ctx, zero, zero)) == exact(zero)
    big = [[ctx.from_rational(-(2 ** 64)), ctx.from_rational(Fraction(2 ** 64 - 1, 3))]]
    col = [[ctx.from_rational(2 ** 63)], [ctx.from_rational(-(2 ** 63) + 1)]]
    assert exact(linalg.mat_mul(ctx, big, col)) == exact(term_by_term_product(ctx, big, col))


def horner_inverse(ctx, a):
    """The inverse by the Horner sum of the characteristic polynomial,
    rebuilt with n - 1 products of its own."""
    n = len(a)
    poly = linalg.charpoly(ctx, a)
    acc = linalg.identity(ctx, n)
    for k in range(n - 1, 0, -1):
        acc = term_by_term_product(ctx, a, acc)
        for i in range(n):
            acc[i][i] = acc[i][i] + poly[k]
    return linalg.mat_scale(acc, -poly[0].invert())


def test_inverse_matches_the_horner_route_on_corpus_matrices(suite_instances):
    for inst in suite_instances[:60]:
        rep = inst.rep
        ctx = rep.ctx
        coxeter = rep.word_matrix(tuple(range(rep.rank)))
        for a in (coxeter, rep.generators[0]):
            inv = linalg.inverse(ctx, a)
            assert linalg.is_identity(ctx, linalg.mat_mul(ctx, inv, a))
            assert exact(inv) == exact(horner_inverse(ctx, a))


def test_inverse_of_size_one_and_of_a_singular_matrix():
    ctx = field_context(5)
    x = ctx.from_coeffs([Fraction(1, 3), 2])
    assert linalg.inverse(ctx, [[x]]) == [[x.invert()]]
    with pytest.raises(ZeroDivisionError):
        linalg.inverse(ctx, [[ctx.zero]])
    with pytest.raises(ZeroDivisionError):
        linalg.inverse(ctx, [[x, x], [2 * x, 2 * x]])


def faddeev_leverrier_determinant(ctx, a):
    """det A = (-1)^n c_0, c_0 the constant term of charpoly (the reference)."""
    c0 = linalg.charpoly(ctx, a)[0]
    return -c0 if len(a) % 2 else c0


def test_determinant_and_rank_of_every_corpus_cartan_matrix(suite_instances, monkeypatch):
    # at most one irrational inversion per determinant
    invert = cyclotomic.FieldElement.invert
    inverted = []

    def counted(x):
        if not x.is_rational():
            inverted.append(x)
        return invert(x)

    results = []
    with monkeypatch.context() as patched:
        patched.setattr(cyclotomic.FieldElement, "invert", counted)
        for inst in suite_instances:
            data = cartan_matrix(inst.rep)
            inverted.clear()
            results.append((inst.rep, data, data.discriminant, data.rank))
            assert len(inverted) <= 1
    for rep, data, det, rank in results:
        assert det == faddeev_leverrier_determinant(rep.ctx, data.entries)
        assert rank == len(linalg.eliminate(rep.ctx, data.entries)[1])
        assert det.is_zero() == (rank < rep.rank)
    assert any(det.is_zero() for _, _, det, _ in results)


@pytest.mark.parametrize("diagram", [
    TRIANGLE,
    validate([[1, 3, 2, 3], [3, 1, 3, 2], [2, 3, 1, 3], [3, 2, 3, 1]]),
])
def test_an_affine_cartan_matrix_has_determinant_zero(diagram):
    data = cartan_matrix(geometric_representation(diagram))
    ctx = data.entries[0][0].ctx
    assert data.discriminant.is_zero()
    assert faddeev_leverrier_determinant(ctx, data.entries).is_zero()
    assert data.rank == len(linalg.eliminate(ctx, data.entries)[1]) == diagram.rank - 1


@pytest.mark.parametrize("n", [1, 5, 12, 60, 280])
def test_determinant_with_row_exchanges_and_of_rank_deficient_matrices(n):
    ctx = field_context(n)
    rng = random.Random(n)
    for size in [1, 2, 3, 4, 5] * (3 if ctx.degree < 20 else 1):
        a = [[random_entry(rng, ctx) for _ in range(size)] for _ in range(size)]
        if size > 1:
            # no pivot in the leading row: the elimination exchanges rows
            a[0][0] = ctx.zero
            a[1][0] = a[1][0] or ctx.from_rational(rng.choice([1, -3, 5]))
        det, rank = linalg.determinant_and_rank(ctx, a)
        assert det == faddeev_leverrier_determinant(ctx, a)
        assert rank == len(linalg.eliminate(ctx, a)[1])
        assert linalg.determinant_and_rank(ctx, a[1:2] + a[:1] + a[2:])[0] == \
            (-det if size > 1 else det)
        for dependent in range(1, size):
            # the last `dependent` rows are combinations of the others
            kept = a[:size - dependent]
            b = kept + [_combination(ctx, rng, kept) for _ in range(dependent)]
            det, rank = linalg.determinant_and_rank(ctx, b)
            assert det.is_zero() and faddeev_leverrier_determinant(ctx, b).is_zero()
            assert rank == len(linalg.eliminate(ctx, b)[1]) <= size - dependent


def _combination(ctx, rng, rows):
    weights = [random_entry(rng, ctx) for _ in rows]
    return [sum((w * x for w, x in zip(weights, col)), ctx.zero) for col in zip(*rows)]


def test_word_matrix_of_the_empty_word_and_one_letter():
    rep = geometric_representation(B3, 1)
    assert linalg.is_identity(rep.ctx, rep.word_matrix(()))
    assert linalg.mat_eq(rep.word_matrix((2,)), rep.generators[2])
    assert linalg.mat_eq(rep.word_matrix((0, 1)),
                         term_by_term_product(rep.ctx, rep.generators[0], rep.generators[1]))


def near_identity(ctx, rng, n, shape):
    """An n x n matrix of the given shape: "generator" (one row differs from
    I), "transposed" (one column), "pair" (a product of two generators),
    "dense" or "identity"."""
    if shape == "identity":
        return linalg.identity(ctx, n)
    if shape == "dense":
        return [[random_entry(rng, ctx) for _ in range(n)] for _ in range(n)]
    if shape == "pair":
        return linalg.mat_mul(ctx, near_identity(ctx, rng, n, "generator"),
                              near_identity(ctx, rng, n, "generator"))
    m = linalg.identity(ctx, n)
    m[rng.randrange(n)] = [random_entry(rng, ctx) for _ in range(n)]
    return linalg.transpose(m) if shape == "transposed" else m


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 5, 12, 60]), st.integers(1, 5),
       st.sampled_from(["generator", "transposed", "pair", "dense", "identity"]),
       st.sampled_from(["square", "column", "two columns", "zero"]),
       st.integers(0, 2 ** 32))
def test_near_identity_kernel_matches_mat_mul(conductor, n, shape, other, seed):
    # N = 1 is the rational field; the others are irrational of degree 2 to 8
    ctx = field_context(conductor)
    rng = random.Random(seed)
    m = near_identity(ctx, rng, n, shape)
    width = {"square": n, "column": 1, "two columns": 2, "zero": n}[other]
    a = [[ctx.zero if other == "zero" else random_entry(rng, ctx) for _ in range(width)]
         for _ in range(n)]
    assert exact(linalg.near_identity_mul(ctx, m, a)) == exact(linalg.mat_mul(ctx, m, a))


def test_near_identity_kernel_on_the_corpus_generators(suite_instances):
    # the shapes the commands pass: generators, duals, pair products and a
    # dense factor on the other side
    for inst in suite_instances[:40]:
        ctx, gens = inst.rep.ctx, inst.rep.generators
        coxeter = inst.rep.word_matrix(tuple(range(len(gens))))
        for g in gens:
            pair = linalg.mat_mul(ctx, g, gens[0])
            for m in (g, linalg.transpose(g), pair):
                assert exact(linalg.near_identity_mul(ctx, m, coxeter)) == \
                    exact(linalg.mat_mul(ctx, m, coxeter))


@pytest.mark.parametrize("broken", [0, 1, 2])
def test_is_intertwiner_rejects_a_relation_that_fails_for_one_generator(broken):
    rep = geometric_representation(B3, 1)
    ctx, gens = rep.ctx, rep.generators
    eye = linalg.identity(ctx, 3)
    assert is_intertwiner(ctx, gens, gens, eye)
    # an entry off row s of generator s: the product is no longer I + one row
    other = [list(map(list, g)) for g in gens]
    other[broken][(broken + 1) % 3][broken] = ctx.from_rational(Fraction(1, 3))
    assert not is_intertwiner(ctx, gens, other, eye)
    assert not is_intertwiner(ctx, other, gens, eye)
    assert is_intertwiner(ctx, other, other, eye)



# -- the rank-one kernels against the n^2-unknown routes of tests/oracles.py --

def _n2_dimensions(rep, theta, gram):
    """The commutant and theta-form dimensions by the n^2-unknown route,
    with the identity and the Gram matrix (or None) as witnesses."""
    ctx, gens = rep.ctx, rep.generators
    return (intertwiner_dimension(ctx, gens, gens, linalg.identity(ctx, rep.rank)),
            intertwiner_dimension(ctx, [linalg.transpose(m) for m in gens],
                                  [theta.apply_matrix(m) for m in gens],
                                  gram.entries if gram is not None else None))


def _assert_reduced_matches_n2(rep, theta):
    gram = build_form(rep, theta) if form_exists(rep, theta) else None
    reduced = (commutant_dimension(rep), form_space_dimension(rep, theta))
    assert reduced == _n2_dimensions(rep, theta, gram), (rep, theta)
    return reduced


def test_reduced_dimensions_match_the_n2_route_on_the_corpus(suite_instances):
    # identity and the first nontrivial involution, where there is one
    for inst in suite_instances:
        for theta in involutive_automorphisms(inst.rep.ctx)[:2]:
            _assert_reduced_matches_n2(inst.rep, theta)


# chord scalars that are unlucky at, or have a denominator divisible by, the
# small split primes forced below: 7, 13 and 19 for N = 6, 13, 37 and 61
# for N = 12
_UNLUCKY = [8, 1 + 7 * 13, 1 + 13, Fraction(1, 7), Fraction(1, 7 * 13), Fraction(1, 13),
            1 + 13 * 37, Fraction(1, 13 * 37), 2, -1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([None, 6]), st.sampled_from(_UNLUCKY), st.integers(0, 2 ** 32))
def test_reduced_dimensions_match_the_n2_route_at_forced_primes(floor, scalar, seed):
    # a triangle or a 4-cycle of labels 3, 4 and 6; with floor 6 the split
    # primes are the small ones the scalars are built around
    rng = random.Random(seed)
    rows = rng.choice([[[1, 3, 3], [3, 1, 3], [3, 3, 1]],
                       [[1, 3, 6], [3, 1, 4], [6, 4, 1]],
                       [[1, 3, 2, 4], [3, 1, 3, 2], [2, 3, 1, 3], [4, 2, 3, 1]]])
    tree = _random_tree(rng, validate(rows))
    params = geometric_parameters(tree)
    for chord in tree.chords:
        l = params.ctx.from_rational(scalar) * params.chord_l[chord] \
            if rng.random() < 0.5 else params.ctx.from_rational(scalar)
        params = params.with_chord(chord, l)
    rep = build(tree, params)
    with pytest.MonkeyPatch.context() as mp:
        if floor is not None:
            use_split_primes_above(mp, rep.ctx, floor)
        for theta in involutive_automorphisms(rep.ctx)[:2]:
            _assert_reduced_matches_n2(rep, theta)


@pytest.mark.parametrize("scalar, routes", [
    (1 + 7 * 13, ("mod 7", "exact")),        # unlucky at 7 and 13
    (8, ("mod 7", "mod 13")),                # unlucky at 7 only
    (Fraction(1, 7), ("mod 13", "mod 13")),  # 7 divides a denominator
    (Fraction(1, 7 * 13), ("mod 19", "mod 19")),
])
def test_unlucky_and_skipped_primes_give_the_n2_routes(monkeypatch, scalar, routes):
    tree = spanning_tree(TRIANGLE, 0)
    params = geometric_parameters(tree)
    rep = build(tree, params.with_chord((1, 2), params.ctx.from_rational(scalar)))
    use_split_primes_above(monkeypatch, rep.ctx, 6)
    (commutant, form) = _assert_reduced_matches_n2(rep, Automorphism.identity(rep.ctx))
    assert (commutant[1], form[1]) == routes
    assert commutant[0] == 1 and form[0] == 0


def _equation_entries(rep, theta):
    """The distinct entries of the commutant's and the theta-form's
    equations a lambda_t = b lambda_s, read off the generator rows y:
    (y_st, y_st) and (y_ts, theta(y_st)) for each s != t whose equation is
    not 0 = 0."""
    y, n = rep.generator_rows, rep.rank
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    commutant = {y[s][t] for s, t in pairs if y[s][t]}
    form = {x for s, t in pairs if y[t][s] or y[s][t] for x in (y[t][s], theta(y[s][t]))}
    return commutant, form


@pytest.mark.parametrize("case", ["B3", "H3", "triangle"])
def test_each_distinct_entry_is_reduced_once_per_prime(monkeypatch, case):
    if case == "triangle":
        # a non-geometric chord scalar: a representation with no form
        tree = spanning_tree(TRIANGLE, 0)
        params = geometric_parameters(tree)
        rep = build(tree, params.with_chord((1, 2), params.ctx.from_rational(7)))
    else:
        rep = geometric_representation(B3 if case == "B3" else H3, 1)
    ctx = rep.ctx
    theta = Automorphism.identity(ctx)
    p = ctx.modular_image(0)[0]
    calls = []
    residue = cyclotomic.FieldElement.residue

    def counted(x, k):
        calls.append((x, k))
        return residue(x, k)

    def assert_once_at_the_first_prime(entries):
        reduced = [x for x, _ in calls]
        assert {k for _, k in calls} == {0}
        assert len(reduced) == len(set(reduced)) == len(entries)
        assert set(reduced) == entries
        calls.clear()

    commutant, form = _equation_entries(rep, theta)
    monkeypatch.setattr(cyclotomic.FieldElement, "residue", counted)
    assert commutant_dimension(rep) == (1, f"mod {p}")
    assert_once_at_the_first_prime(commutant)
    # the witness is the verdict of the exact check on the criterion's form
    witness = case != "triangle"
    assert form_space_dimension(rep, theta, witness) == (int(witness), f"mod {p}")
    assert_once_at_the_first_prime(form)


def _equation_generators(ctx, n, rows, side):
    """I + e_s (x) v_s for each s, with v_ss = -2 and v_st the entry a
    (side 0) or b (side 1) of rows[s, t], 0 when (s, t) has no equation:
    A_s X = X B_s then holds for X = diag(lambda) exactly when
    a lambda_t = b lambda_s for each equation, and for no other X."""
    zero, minus_one = ctx.zero, ctx.from_rational(-1)
    return linalg.identity_with_rows(ctx, [
        [minus_one if t == s else rows.get((s, t), (zero, zero))[side] for t in range(n)]
        for s in range(n)])


@pytest.mark.parametrize("conductor, n, equations, dimension", [
    (1, 1, {}, 1),
    (1, 3, {}, 3),
    (1, 2, {(0, 1): (0, 3)}, 1),                      # a = 0: lambda_0 = 0
    (1, 3, {(0, 1): (5, 0), (1, 2): (2, 2)}, 1),      # b = 0: lambda_1 = 0
    (1, 3, {(0, 1): (0, 1), (2, 1): (4, 0)}, 1),
    (1, 2, {(0, 1): (2, 2), (1, 0): (3, 3)}, 1),
    (5, 3, {(0, 1): ("c", 1), (1, 0): (1, "c"), (1, 2): (0, "c")}, 1),
    (5, 2, {(0, 1): ("c", 1), (1, 0): ("c", 1)}, 0),
])
def test_reduced_dimension_of_written_equations_matches_the_n2_route(
        conductor, n, equations, dimension):
    ctx = field_context(conductor)
    c = ctx.cos_element(1, conductor)
    rows = {pair: tuple(c if x == "c" else ctx.from_rational(x) for x in ab)
            for pair, ab in equations.items()}
    gens_a, gens_b = (_equation_generators(ctx, n, rows, side) for side in (0, 1))
    eye = linalg.identity(ctx, n)
    witnesses = [(0, None)]
    if all(a == b for a, b in rows.values()):
        # the identity solves a lambda_t = a lambda_s
        witnesses.append((1, eye))
    for lower, witness in witnesses:
        reduced = linalg.reduced_dimension(ctx, n, rows, lower)
        assert reduced == intertwiner_dimension(ctx, gens_a, gens_b, witness)
        assert reduced[0] == dimension


def _shaped(ctx, rows, transposed=False):
    """I + e_s (x) rows[s] for each s, or I + rows[s]^T (x) e_s."""
    out = []
    for s, row in enumerate(rows):
        m = linalg.identity(ctx, len(rows))
        for j, x in enumerate(row):
            i, k = (j, s) if transposed else (s, j)
            m[i][k] = m[i][k] + x
        out.append(m)
    return out


def _nonzero_entry(rng, ctx):
    x = random_entry(rng, ctx)
    return x if x else ctx.one


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 5, 12, 60]), st.integers(1, 4), st.booleans(),
       st.sampled_from(["none", "none", "w", "diagonal", "row", "zero"]),
       st.integers(0, 2 ** 32))
def test_intertwines_matches_the_near_identity_products(conductor, n, transposed,
                                                        change, seed):
    # a solution by construction: w = diag(lambda) with b_st = a_st l_t / l_s,
    # or (transposed) w = A^T diag(lambda) with b_st = l_t a_ts / l_s; then
    # one entry of w, or of a row b_s off its diagonal, moves, or w is 0
    ctx = field_context(conductor)
    rng = random.Random(seed)
    minus_two = ctx.from_rational(-2)
    a = [[minus_two if j == s else random_entry(rng, ctx) for j in range(n)]
         for s in range(n)]
    lam = [_nonzero_entry(rng, ctx) for _ in range(n)]
    inv = [x.invert() for x in lam]
    if transposed:
        w = [[lam[j] * a[j][i] for j in range(n)] for i in range(n)]
        b = [[lam[t] * a[t][s] * inv[s] for t in range(n)] for s in range(n)]
    else:
        w = [[lam[i] if i == j else ctx.zero for j in range(n)] for i in range(n)]
        b = [[a[s][t] * lam[t] * inv[s] for t in range(n)] for s in range(n)]
    s, t = rng.randrange(n), rng.randrange(n)
    if change in ("w", "diagonal"):
        t = s if change == "diagonal" else t
        w[s][t] = w[s][t] + _nonzero_entry(rng, ctx)
    elif change == "row" and n > 1:
        t = (s + 1 + rng.randrange(n - 1)) % n
        b[s][t] = b[s][t] + _nonzero_entry(rng, ctx)
    elif change == "zero":
        w = [[ctx.zero] * n for _ in range(n)]
    mats_a, mats_b = _shaped(ctx, a, transposed), _shaped(ctx, b)
    expected = is_intertwiner(ctx, mats_a, mats_b, w)
    assert linalg.generator_rows(ctx, mats_b) == tuple(map(tuple, b))
    assert linalg.intertwines(ctx, a, b, w, transposed) == expected
    if change == "none":
        assert expected


@pytest.mark.parametrize("entry", [(0, 0, 0), (0, 1, 0), (1, 0, 2), (2, 2, 1), (2, 1, 1)])
def test_generator_rows_reject_any_entry_off_row_s_and_a_moved_diagonal(entry):
    # the adapted dual generators of H3: a change on row s, off its
    # diagonal, keeps the shape and fails the check; any other change
    # loses the shape
    rep = geometric_representation(H3, 1)
    ctx = rep.ctx
    dual = dual_representation(rep)
    gens = [list(map(list, m)) for m in dual.adapted_generators]
    basis = [[dual.scalings[j] * dual.adapted_rows[j][i] for j in range(3)]
             for i in range(3)]
    assert linalg.intertwines(ctx, rep.generator_rows,
                              linalg.generator_rows(ctx, gens), basis, True)
    s, i, j = entry
    gens[s][i][j] = gens[s][i][j] + 1
    assert not is_intertwiner(ctx, dual.dual_generators, gens, basis)
    rows = linalg.generator_rows(ctx, gens)
    if i == s and j != s:
        assert not linalg.intertwines(ctx, rep.generator_rows, rows, basis, True)
    else:
        assert rows is None


def test_a_transposed_generator_has_no_generator_rows():
    rep = geometric_representation(B3, 1)
    transposes = [linalg.transpose(m) for m in rep.generators]
    assert linalg.generator_rows(rep.ctx, transposes) is None
    assert linalg.generator_rows(rep.ctx, rep.generators[:2]) is None
    assert linalg.generator_rows(rep.ctx, rep.generators) == \
        tuple(tuple(-x for x in row) for row in cartan_matrix(rep).entries)


def test_the_witness_checks_match_the_near_identity_products_on_the_corpus(suite_instances):
    rng = random.Random(9)
    for inst in suite_instances:
        rep = inst.rep
        ctx, gens, rows = rep.ctx, rep.generators, rep.generator_rows
        eye = linalg.identity(ctx, rep.rank)
        zero = [[ctx.zero] * rep.rank for _ in range(rep.rank)]
        for w in (eye, zero, _shaped(ctx, rows)[0]):
            assert linalg.intertwines(ctx, rows, rows, w) == is_intertwiner(ctx, gens, gens, w)
        moved = tree_change_intertwiner(rep, _random_tree(rng, inst.diagram))
        diagonal = moved.matrix
        assert moved.verify() and is_intertwiner(ctx, gens, moved.target.generators, diagonal)
        s = rng.randrange(rep.rank)
        diagonal[s][s] = 2 * diagonal[s][s]
        assert linalg.intertwines(ctx, rows, moved.target.generator_rows, diagonal) == \
            is_intertwiner(ctx, gens, moved.target.generators, diagonal)
        theta = involutive_automorphisms(ctx)[-1]
        if form_exists(rep, theta):
            gram = [list(row) for row in build_form(rep, theta).entries]
            transposes = [linalg.transpose(m) for m in gens]
            moved_gens = [theta.apply_matrix(m) for m in gens]
            for change in (None, (s, s), (s, (s + 1) % rep.rank)):
                if change:
                    gram[change[0]][change[1]] = gram[change[0]][change[1]] + 1
                assert linalg.intertwines(ctx, rows, theta.apply_matrix(rows), gram, True) \
                    == is_intertwiner(ctx, transposes, moved_gens, gram)
