"""Every field element that coxrep.cyclotomic makes is in canonical form:
its cosine coordinates end at the last nonzero one (zero is (0,)), its
denominator is positive and prime to the content, and it is rational
exactly when it has one coordinate.  Checked on the results of the
arithmetic, the Galois action, the constructors and invert, with operands
whose top coordinates cancel."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxrep.cyclotomic import ContextMismatch, FieldElement, field_context

CONDUCTORS = (5, 7, 12, 105, 280)

_small = st.integers(-3, 3)
_rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def assert_canonical(x):
    num, den = x.num, x.den
    assert type(num) is tuple and 1 <= len(num) <= x.ctx.degree
    assert num == (0,) or num[-1] != 0, num
    assert den > 0 and math.gcd(den, *num) == 1
    assert x.is_rational() == (len(num) == 1) == (not any(x.power_num[1:]))


@st.composite
def _element(draw, ctx):
    """Cosine coordinates, often with trailing zeros, over a small
    denominator."""
    size = draw(st.integers(1, ctx.degree))
    coords = draw(st.lists(_small, min_size=size, max_size=size))
    coords += [0] * draw(st.integers(0, ctx.degree - size))
    return FieldElement(ctx, coords, draw(st.integers(1, 6)))


@st.composite
def _pair(draw, ctx):
    """Two elements, the second often agreeing with the first in its top
    coordinates, so that their difference loses them."""
    x = draw(_element(ctx))
    if draw(st.booleans()):
        return x, draw(_element(ctx))
    keep = draw(st.integers(0, len(x.num)))
    low = draw(st.lists(_small, min_size=keep, max_size=keep))
    return x, FieldElement(ctx, low + list(x.num[keep:]), x.den)


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_result_is_canonical(n, data):
    ctx = field_context(n)
    x, y = data.draw(_pair(ctx))
    q = data.draw(_rational)
    results = [x, y, x + y, x - y, y - x, x * y, -x, x + q, q - x, x * q, x - x, y * 0]
    results += [x / y if y else x, x / q if q else x, q / x if x else x]
    results += [ctx.galois(j, x) for j in (1, 2, n - 1) if math.gcd(j, n) == 1]
    if x:
        inverse = x.invert()
        assert x * inverse == 1
        results.append(inverse)
    coeffs = data.draw(st.lists(_rational, max_size=ctx.degree - 1))
    results += [ctx.from_coeffs(coeffs), ctx.from_coeffs(coeffs + [0]),
                ctx.from_rational(q), ctx.from_rational(q.numerator)]
    m = data.draw(st.sampled_from([m for m in range(1, n + 1) if n % m == 0]))
    results.append(ctx.cos_element(data.draw(st.integers(0, m)), m))
    results += [ctx.zero, ctx.one, ctx.generator]
    for result in results:
        assert_canonical(result)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_zero_one_and_basis_vectors_have_their_short_coordinates(n):
    ctx = field_context(n)
    assert (ctx.zero.num, ctx.one.num, ctx.from_rational(-7).num) == ((0,), (1,), (-7,))
    assert ctx.cos_element(0, 1).num == (2,)
    for j in range(1, ctx.degree):
        assert ctx.cos_element(j, n).num == (0,) * j + (1,)
    assert len(ctx.one.power_num) == ctx.degree


def _scalars(ctx):
    """An int, a Fraction, a bool, and 0, 1 and -1 both as ints and as
    elements of ctx."""
    ints = st.sampled_from([0, 1, -1]) | st.integers(-10 ** 20, 10 ** 20)
    return (ints | _rational | st.booleans()
            | st.sampled_from([0, 1, -1]).map(ctx.from_rational))


def _coords(z, degree):
    """The cosine coordinates of an element or a rational, as Fractions."""
    if isinstance(z, FieldElement):
        return [Fraction(v, z.den) for v in z.num] + [Fraction(0)] * (degree - len(z.num))
    return [Fraction(z)] + [Fraction(0)] * (degree - 1)


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mixed_operands_give_canonical_results_equal_to_fraction_coordinates(n, data):
    ctx = field_context(n)
    x = data.draw(st.one_of(_element(ctx), st.sampled_from([0, 1, -1]).map(ctx.from_rational)))
    k = data.draw(_scalars(ctx))
    xs, ks = _coords(x, ctx.degree), _coords(k, ctx.degree)
    rational = ks[0]                    # k is rational
    for result, expected in ((x + k, [a + b for a, b in zip(xs, ks)]),
                             (k + x, [a + b for a, b in zip(xs, ks)]),
                             (x - k, [a - b for a, b in zip(xs, ks)]),
                             (k - x, [b - a for a, b in zip(xs, ks)]),
                             (x * k, [a * rational for a in xs]),
                             (k * x, [a * rational for a in xs])):
        assert type(result) is FieldElement and result.ctx is ctx
        assert_canonical(result)
        assert _coords(result, ctx.degree) == expected
    assert (x == k) is (k == x) is (xs == ks)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_arithmetic_across_contexts_raises(n):
    x, y = field_context(n).generator, field_context(2 * n + 1).one
    for op in (lambda: x + y, lambda: y + x, lambda: x - y, lambda: y - x,
               lambda: x * y, lambda: y * x, lambda: x / y):
        with pytest.raises(ContextMismatch):
            op()
    assert x != y and not x == field_context(2 * n + 1).generator
