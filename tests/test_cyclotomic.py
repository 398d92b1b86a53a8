"""Field arithmetic tests, including the floating-point minimal polynomial oracle."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from coxrep import cyclotomic, linalg
from coxrep.construction import cartan_matrix
from coxrep.cyclotomic import (
    DivisionByZero,
    IntPolynomial,
    NonDivisorOrder,
    NotCoprime,
    cyclotomic_polynomial,
    euler_phi,
    field_context,
    minimal_poly_real_cyclotomic,
)

from oracles import euclid_inverse, evaluate, poly_divmod, reduce_product
from test_linalg import use_split_primes_above


def min_poly_float_oracle(n: int, precision_bits: int = 200) -> list[int]:
    """Expand prod(x - 2cos(2 pi k / n)) over gcd(k,n)=1, k <= n/2, with
    high-precision floats; round coefficients to integers and check the
    rounding error is tiny."""
    with mpmath.workprec(precision_bits):
        if n == 1:
            roots = [mpmath.mpf(2)]
        elif n == 2:
            roots = [mpmath.mpf(-2)]
        else:
            roots = [2 * mpmath.cos(2 * mpmath.pi * k / n)
                     for k in range(1, n // 2 + 1) if math.gcd(k, n) == 1]
        coeffs = [mpmath.mpf(1)]
        for r in roots:
            nxt = [mpmath.mpf(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c * (-r)
                nxt[i + 1] += c
            coeffs = nxt
        out = []
        for c in coeffs:
            k = int(mpmath.nint(c))
            assert abs(c - k) < mpmath.mpf(10) ** -30
            out.append(k)
    return out


@pytest.mark.parametrize("n,expected", [
    (1, [-2, 1]),
    (2, [2, 1]),
    (5, [-1, 1, 1]),
])
def test_min_poly_small_values(n, expected):
    assert [int(c) for c in minimal_poly_real_cyclotomic(n).coeffs] == expected


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 12, 15, 24, 30])
def test_min_poly_matches_float_oracle(n):
    poly = minimal_poly_real_cyclotomic(n)
    assert poly.is_monic() and all(type(c) is int for c in poly.coeffs)
    assert [int(c) for c in poly.coeffs] == min_poly_float_oracle(n)


def _int_coeffs(poly):
    assert all(type(c) is int for c in poly.coeffs)
    return [int(c) for c in poly.coeffs]


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v:
                    out[i + j] += u * v
    return out


@pytest.mark.parametrize("ns", [range(1, 301), [1260, 2400]], ids=["n<=300", "n=1260,2400"])
def test_cyclotomic_polynomials_multiply_to_x_n_minus_1(ns):
    for n in ns:
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _int_poly_mul(product, _int_coeffs(cyclotomic_polynomial(d)))
        assert product == [-1] + [0] * (n - 1) + [1], n
        assert cyclotomic_polynomial(n).degree == euler_phi(n)


@pytest.mark.parametrize("ns", [range(3, 301), [1260, 2400]], ids=["n<=300", "n=1260,2400"])
def test_real_minimal_polynomial_gives_back_the_cyclotomic_one(ns):
    # z^d * psi(z + 1/z) = Phi_n(z), by Horner in y = z + 1/z:
    # acc <- acc * (z^2 + 1) + psi_k * z^(d-k), from k = d down to 0
    for n in ns:
        psi = _int_coeffs(minimal_poly_real_cyclotomic(n))
        d = len(psi) - 1
        acc = [0] * (2 * d + 1)
        for k in range(d, -1, -1):
            acc = [acc[i] + (acc[i - 2] if i >= 2 else 0) for i in range(2 * d + 1)]
            acc[d - k] += psi[k]
        assert acc == _int_coeffs(cyclotomic_polynomial(n)), n


def test_min_poly_n15_degree_four_annihilates():
    poly = minimal_poly_real_cyclotomic(15)
    assert poly.degree == 4
    ctx = field_context(15)
    assert evaluate(poly, ctx.generator).is_zero()


@pytest.mark.parametrize("n,deg", [(1, 1), (5, 2), (15, 4)])
def test_context_degree(n, deg):
    assert field_context(n).degree == deg


def test_min_poly_vanishes_numerically_all_conductors():
    # |psi_N(2cos(2 pi/N))| < 1e-20 at 160-bit precision for N <= 60
    for n in range(1, 61):
        ctx = field_context(n)
        with mpmath.workprec(160):
            x = 2 * mpmath.cos(2 * mpmath.pi / n)
            val = evaluate(ctx.min_poly, x)
            assert abs(val) < mpmath.mpf(10) ** -20, (n, val)


def test_cos_element_values():
    ctx = field_context(15)
    assert ctx.cos_element(0, 1) == 2
    ctx3 = field_context(3)
    assert ctx3.cos_element(1, 3) == -1
    ctx5 = field_context(5)
    assert ctx5.cos_element(1, 5) == ctx5.generator


def test_cos_element_rejects_non_divisor():
    with pytest.raises(NonDivisorOrder):
        field_context(10).cos_element(1, 3)


def test_cos_element_parity_and_divisor_embedding():
    ctx = field_context(60)
    for m in (3, 4, 5, 6, 12, 20, 60):
        for k in range(m + 1):
            assert ctx.cos_element(k, m) == ctx.cos_element(m - k, m)
    # value for (k, m) equals value for (k*d, m*d)
    for (k, m, d) in [(1, 5, 12), (2, 5, 6), (1, 12, 5), (3, 20, 3)]:
        assert ctx.cos_element(k, m) == ctx.cos_element(k * d, m * d)


def test_basic_arithmetic_n5():
    ctx = field_context(5)
    c = ctx.generator
    # c^2 + c - 1 = 0, so c*c = 1 - c
    assert c * c == ctx.from_rational(1) - c
    two = ctx.from_rational(2)
    assert two.invert() == Fraction(1, 2)
    # 4cos^2(pi/5) * 4cos^2(2pi/5) = 1  (product of roots of X^2-3X+1)
    a1 = 2 + ctx.cos_element(1, 5)
    a2 = 2 + ctx.cos_element(2, 5)
    assert a1 * a2 == 1
    assert a1 + a2 == 3


def test_division_and_errors():
    ctx = field_context(5)
    with pytest.raises(DivisionByZero):
        ctx.zero.invert()
    other = field_context(7)
    with pytest.raises(Exception):
        ctx.one + other.one


def test_galois_basics():
    ctx = field_context(5)
    alpha = 2 + ctx.cos_element(1, 5)       # (3+sqrt5)/2
    conj = 2 + ctx.cos_element(2, 5)        # (3-sqrt5)/2
    assert ctx.galois(2, alpha) == conj
    assert ctx.galois(2, alpha) == 3 - alpha
    assert ctx.galois(1, alpha) == alpha
    # complex conjugation fixes the real subfield
    assert ctx.galois(4, alpha) == alpha
    with pytest.raises(NotCoprime):
        ctx.galois(5, alpha)


def test_galois_composition():
    ctx = field_context(15)
    x = ctx.generator + 3 * ctx.generator ** 2
    for j1 in (2, 4, 7):
        for j2 in (2, 4, 7):
            assert ctx.galois(j1, ctx.galois(j2, x)) == ctx.galois(j1 * j2, x)


def test_approximate():
    ctx = field_context(8)
    assert ctx.from_rational(2).approximate() == 2.0
    root2 = ctx.cos_element(1, 8)  # 2cos(pi/4) = sqrt2
    with mpmath.workprec(300):
        assert root2.approximate() == float(mpmath.sqrt(2))
    ctx8 = field_context(8)
    v4_root = 2 + ctx8.cos_element(1, 4)  # 4cos^2(pi/4) = 2
    assert v4_root == 2
    golden = 2 + field_context(5).cos_element(1, 5)
    with mpmath.workprec(300):
        assert golden.approximate() == float((3 + mpmath.sqrt(5)) / 2)


def test_approximate_survives_cancellation_at_conductor_504():
    # power-basis coordinates of 2cos(2 pi k/504) are large and cancel; a
    # working precision blind to that once gave errors near 1e-6
    ctx = field_context(504)
    for k in range(1, 253):
        x = ctx.cos_element(k, 504)
        with mpmath.workprec(300):
            # cospi of the binary 1/2 (k = 126) is exactly 0
            exact = float(2 * mpmath.cospi(mpmath.mpf(2 * k) / 504))
        assert x.approximate() == exact


@pytest.mark.parametrize("n", [1260, 1584])
def test_approximate_raises_its_precision_on_small_values_with_large_coordinates(n):
    """(c - 2)^k and a - b c, a/b the best approximation of c with b below
    2^40, have cosine coordinates of up to 2^40 and values far below 1, so
    the first working precision leaves the error bound above 2^-84 of the
    sum and approximate retries at a higher one; the context keeps only
    the fixed-point cosines of the precision it accepts.  c and c - 2 are
    decided on the first pass.  The values are checked against the
    power-basis coordinates evaluated at 2000 bits."""
    ctx = cyclotomic.FieldContext(n)
    c = ctx.generator

    def exact(x):
        with mpmath.workprec(2000):
            value = evaluate(IntPolynomial(x.power_num), 2 * mpmath.cos(2 * mpmath.pi / n))
            return value / x.den

    with mpmath.workprec(300):
        best = Fraction(int(mpmath.ldexp(exact(c), 250)), 2 ** 250).limit_denominator(2 ** 40)
    small = [(c - 2) ** 5, (c - 2) ** 20, best.numerator - best.denominator * c,
             (best.numerator - best.denominator * c) * (c - 2) ** 3]
    for x in [c, c - 2] + small:
        ctx._approx_cache.clear()
        value = exact(x)
        assert x.approximate() == float(value)
        # the precision approximate tries first
        first = -(-(64 + (2 * sum(map(abs, x.num))).bit_length() + 20) // 64) * 64
        (accepted,) = ctx._approx_cache
        assert (accepted > first) == (x in small), (n, x)


def _random_element(ctx, rng):
    return ctx.from_coeffs([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            for _ in range(ctx.degree)])


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12, 15, 30])
def test_field_axioms_random(n):
    ctx = field_context(n)
    rng = random.Random(n * 977)
    for _ in range(12):
        x = _random_element(ctx, rng)
        y = _random_element(ctx, rng)
        assert (x + y) - y == x
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.invert() == ctx.one
        j = next(j for j in range(1, n + 1) if math.gcd(j, n) == 1)
        assert ctx.galois(j, x * y) == ctx.galois(j, x) * ctx.galois(j, y)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.sampled_from([7, 11, 13]))
def test_galois_is_multiplicative(xs, ys, j):
    ctx = field_context(15)
    x = ctx.from_coeffs(xs)
    y = ctx.from_coeffs(ys)
    assert ctx.galois(j, x * y) == ctx.galois(j, x) * ctx.galois(j, y)
    assert ctx.galois(j, x + y) == ctx.galois(j, x) + ctx.galois(j, y)


def test_int_polynomial_divmod_and_shift():
    p = IntPolynomial([1, -3, 1])           # x^2 - 3x + 1
    q, r = poly_divmod(p, IntPolynomial([-1, 1]))  # divide by x - 1
    assert r == IntPolynomial([-1])
    assert q == IntPolynomial([-2, 1])
    shifted = p.shifted_argument(-2)        # p(x - 2): not used with +2 anywhere
    assert evaluate(shifted, Fraction(2)) == evaluate(p, Fraction(0))


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 5, 12, 15, 30)] == [1, 1, 4, 4, 8, 8]


def test_a_dropped_context_is_freed_without_the_cycle_collector():
    # the context's caches hold integer coordinates, not elements, so no
    # reference cycle keeps a dropped context and its caches alive
    import gc
    import weakref

    from coxrep.cyclotomic import FieldContext

    gc.disable()
    try:
        ctx = FieldContext(35)
        x = ctx.cos_element(3, 35) + ctx.one
        assert ctx.galois(2, x) == ctx.cos_element(6, 35) + 1
        ref = weakref.ref(ctx)
        del ctx, x
        assert ref() is None
    finally:
        gc.enable()


# -- the inverse: lifted from a split prime, against the Euclid oracle -------

INVERSE_CONDUCTORS = (1, 5, 12, 60, 280, 1260, 1584)

_fractions = st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 20))


@st.composite
def _elements(draw, n):
    """Elements of the field of conductor n.  Up to degree 8 they have any
    coordinates.  Above, they are polynomials in 2cos(2 pi k/m) for an order
    m | n below 40, as the scalars of the diagrams are; that keeps their
    inverses, and the oracle's time, small."""
    ctx = field_context(n)
    if ctx.degree <= 8:
        return ctx.from_coeffs(draw(st.lists(_fractions, min_size=ctx.degree,
                                             max_size=ctx.degree)))
    m = draw(st.sampled_from([m for m in range(3, 40) if n % m == 0]))
    b = ctx.cos_element(draw(st.integers(1, m - 1)), m)
    acc = ctx.zero
    for c in draw(st.lists(_fractions, min_size=1, max_size=4)):
        acc = acc * b + c
    return acc


def _exact(x):
    return x.num, x.den


@pytest.mark.parametrize("n", INVERSE_CONDUCTORS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_invert_equals_the_euclid_oracle(n, data):
    x = data.draw(_elements(n))
    if x.is_zero():
        with pytest.raises(DivisionByZero):
            x.invert()
    else:
        assert _exact(x.invert()) == _exact(euclid_inverse(x))


def test_invert_equals_the_euclid_oracle_on_corpus_determinants(suite_instances):
    irrational = 0
    for inst in suite_instances:
        rep = inst.rep
        coxeter = rep.word_matrix(tuple(range(rep.rank)))
        for det in (cartan_matrix(rep).discriminant,
                    linalg.determinant_and_rank(rep.ctx, [[x - 1 if i == j else x
                                                           for j, x in enumerate(row)]
                                                          for i, row in enumerate(coxeter)])[0]):
            if not det.is_zero():
                irrational += not det.is_rational()
                assert _exact(det.invert()) == _exact(euclid_inverse(det))
    assert irrational > 50


def _record(monkeypatch, name):
    """Wrap cyclotomic.<name> so its (arguments, result) pairs are kept."""
    calls = []
    real = getattr(cyclotomic, name)

    def spy(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(cyclotomic, name, spy)
    return calls


def test_invert_moves_on_from_a_prime_where_the_element_is_no_unit(monkeypatch):
    # psi = c^2 + c - 1 at N = 5 and psi(3) = 11, so c - 3 has norm 11: it
    # is no unit modulo the split prime 11, and the next one, 31, serves
    ctx = field_context(5)
    use_split_primes_above(monkeypatch, ctx, 10)
    inverses = _record(monkeypatch, "_inverse_mod")
    x = ctx.generator - 3
    assert _exact(x.invert()) == _exact(euclid_inverse(x))
    assert [(args[2], result is None) for args, result in inverses] == [(11, True), (31, False)]


def test_invert_rejects_a_reconstruction_that_fails_the_exact_product(monkeypatch):
    # modulo 29 the cosine coordinates of the inverse of -c^2 - 3c - 4 at
    # N = 7 pass as (8 - 4 b_1)/1, which the exact product refutes; the lift
    # goes on
    ctx = field_context(7)
    use_split_primes_above(monkeypatch, ctx, 10)
    proposals = _record(monkeypatch, "_reconstruct")
    x = ctx.from_coeffs([-4, -3, -1])
    inverse = x.invert()
    assert _exact(inverse) == _exact(euclid_inverse(x))
    (_, q), proposal = proposals[0]
    assert q == 29 and proposal == ((8, -4) + (0,) * (len(proposal[0]) - 2), 1)
    assert x * (8 - 4 * ctx.generator) != 1
    last = proposals[-1][1]
    assert last == (inverse.num + (0,) * (len(last[0]) - len(inverse.num)), inverse.den)


@pytest.mark.parametrize("n", INVERSE_CONDUCTORS)
def test_invert_of_zero_and_of_rationals(monkeypatch, n):
    ctx = field_context(n)
    with pytest.raises(DivisionByZero):
        ctx.zero.invert()
    inverses = _record(monkeypatch, "_inverse_mod")
    for q in (Fraction(-3, 7), Fraction(1), Fraction(2 ** 70, 3)):
        x = ctx.from_rational(q)
        assert _exact(x.invert()) == _exact(ctx.from_rational(1 / q))
        assert _exact(x.invert()) == _exact(euclid_inverse(x))
    assert inverses == []


def _reduction_lengths(d: int, rng: random.Random) -> list[int]:
    """Every convolution length 0 .. 2d - 1 up to degree 48; above it the
    Fraction oracle takes seconds per length, so the lengths at the ends of
    both ranges and eight drawn between them."""
    if d <= 48:
        return list(range(2 * d))
    ends = {0, 1, d - 1, d, d + 1, 2 * d - 2, 2 * d - 1}
    return sorted(ends | {rng.randrange(2 * d) for _ in range(8)})


@pytest.mark.parametrize("n", [1, 5, 12, 60, 280, 1260, 1584])
def test_reduce_product_is_the_remainder_by_psi(n):
    ctx = field_context(n)
    d = ctx.degree
    rng = random.Random(n)
    for length in _reduction_lengths(d, rng):
        b = rng.choice([1, 2, 31, 64, 300])
        top = 2 ** b - 1
        conv = [rng.choice([top, -top, 0, rng.randint(-top, top)]) for _ in range(length)]
        _, remainder = poly_divmod(IntPolynomial(conv), ctx.min_poly)
        expected = list(remainder.coeffs) + [0] * (d - len(remainder.coeffs))
        assert reduce_product(ctx, list(conv)) == expected, (n, length)


def test_field_set_up_keeps_psi_and_nothing_of_size_d_squared():
    import tracemalloc

    minimal_poly_real_cyclotomic(4006)      # degree 1001, cached
    tracemalloc.start()
    try:
        ctx = cyclotomic.FieldContext(4006)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.degree == 1001
    assert peak < 10 * 2 ** 20


@st.composite
def _sparse_elements(draw, ctx):
    """Elements with a few nonzero coordinates, anywhere up to the degree,
    some of them big, over a big or small denominator."""
    coords = [Fraction(0)] * ctx.degree
    for i, v in draw(st.dictionaries(st.integers(0, ctx.degree - 1),
                                     _fractions | st.integers(-10 ** 30, 10 ** 30),
                                     max_size=4)).items():
        coords[i] = Fraction(v)
    return ctx.from_coeffs(coords)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 5, 12, 30, 1260]))
def test_subtraction_and_rational_coercion_match_fraction_coordinates(data, n):
    """x - y, k - x, x - k, from_rational and == against from_coeffs of the
    Fraction coordinates: the same canonical (num, den)."""
    ctx = field_context(n)
    x, y = data.draw(_sparse_elements(ctx)), data.draw(_sparse_elements(ctx))
    k = data.draw(st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30))
    q = data.draw(_fractions)

    def coords(z):
        return [Fraction(v, z.den) for v in z.power_num]

    def exact(z):
        return z.num, z.den

    def rational(r):
        return [Fraction(r)] + [Fraction(0)] * (ctx.degree - 1)

    assert exact(x - y) == exact(ctx.from_coeffs([a - b for a, b in zip(coords(x), coords(y))]))
    for r in (k, q):
        assert exact(x - r) == exact(ctx.from_coeffs([a - b for a, b in zip(coords(x), rational(r))]))
        assert exact(r - x) == exact(ctx.from_coeffs([b - a for a, b in zip(coords(x), rational(r))]))
        assert exact(ctx.from_rational(r)) == exact(ctx.from_coeffs(rational(r)))
        assert (x == r) == (coords(x) == rational(r))
        assert (x + r == r) == x.is_zero()
    assert isinstance(ctx.from_rational(k).num, tuple)
    assert (x == y) == (coords(x) == coords(y))
    assert x.__eq__("x") is NotImplemented and x.__eq__(0.5) is NotImplemented
    # the same coordinates in another field of the same degree
    twin = field_context({1: 2, 5: 10, 12: 10, 30: 15, 1260: 1008}[n])
    assert twin.degree == ctx.degree and x != twin.from_coeffs(coords(x))


def test_each_operation_makes_at_most_one_element(monkeypatch):
    """An int or Fraction operand becomes no element, subtraction is one
    pass, and an operand that decides the result is returned itself."""
    ctx = field_context(24)
    x, y = 3 + ctx.generator ** 3, ctx.generator - 5
    zero, one = ctx.zero, ctx.one
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

    for op in (lambda: x - 1, lambda: 1 - x, lambda: x - y, lambda: x + y,
               lambda: x * Fraction(1, 2), lambda: x * 3, lambda: x * -1, lambda: 0 - x):
        assert count(op)[0] <= 1
    for op, same in ((lambda: x * 1, x), (lambda: 1 * x, x), (lambda: x * one, x),
                     (lambda: x + 0, x), (lambda: 0 + x, x), (lambda: x - 0, x),
                     (lambda: x + zero, x), (lambda: zero + x, x), (lambda: x * zero, zero),
                     (lambda: zero * x, zero), (lambda: -zero, zero)):
        assert count(op) == (0, same) and op() is same
    assert count(lambda: x == 4) == (0, False)
    assert count(lambda: x == x * 1) == (0, True)
