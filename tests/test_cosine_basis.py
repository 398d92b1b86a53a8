"""The cosine-basis arithmetic of coxrep.cyclotomic against the power-basis
oracles of tests/oracles.py: products (also across slot widths), sums and
negation, the change of basis both ways, the Galois action, inverses,
cosines, and the images modulo split primes as a ring map.  The conductors
include N = 2 (mod 4) (138) and degree 240 (1584)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    power_cos_element,
    power_cosines,
    power_galois,
    power_image,
    power_invert,
    power_product,
)

from coxrep import linalg
from coxrep.cyclotomic import (
    DivisionByZero,
    FieldElement,
    field_context,
)

CONDUCTORS = (3, 5, 7, 24, 138, 336, 1260, 1584)
# the Galois oracle takes the degree-many powers of an image by oracle
# products: seconds per element above degree 48
GALOIS_ORACLE_CONDUCTORS = (3, 5, 7, 24, 138, 336)

_small = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
_big = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 30))


@st.composite
def _coords(draw, n):
    """Power-basis coordinates: dense small ones, or a few anywhere up to
    the degree, some of them big."""
    d = field_context(n).degree
    if draw(st.booleans()):
        return draw(st.lists(_small, min_size=d, max_size=d))
    coords = [Fraction(0)] * d
    entries = draw(st.dictionaries(st.integers(0, d - 1), _small | _big, max_size=5))
    for i, v in entries.items():
        coords[i] = v
    return coords


@st.composite
def _structured(draw, n):
    """Polynomials in 2cos(2 pi k/m) for an order m | n below 40, as the
    scalars of the diagrams are; their inverses stay small enough for the
    oracle."""
    ctx = field_context(n)
    m = draw(st.sampled_from([m for m in range(3, 40) if n % m == 0]))
    b = power_cos_element(ctx, draw(st.integers(1, m - 1)), m)
    acc = ctx.zero
    for c in draw(st.lists(_small, min_size=1, max_size=4)):
        acc = power_product(acc, b) + c
    return acc


def _exact(x):
    return x.num, x.den


def _power(x):
    return [Fraction(v, x.den) for v in x.power_num]


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_the_change_of_basis_round_trips(n, data):
    ctx = field_context(n)
    coords = data.draw(_coords(n))
    x = ctx.from_coeffs(coords)
    assert _power(x) == coords
    assert ctx.from_coeffs(_power(x)) == x
    assert x.is_rational() == (not any(coords[1:]))
    assert x.effective_degree == max([i for i, v in enumerate(coords) if v], default=0)
    if x:
        top = x.effective_degree
        assert (x.num[top] > 0) == (coords[top] > 0)


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_products_sums_and_negation_match_the_power_basis(n, data):
    ctx = field_context(n)
    x, y = (ctx.from_coeffs(data.draw(_coords(n))) for _ in range(2))
    assert _exact(x * y) == _exact(power_product(x, y))
    assert _exact(x * x) == _exact(power_product(x, x))
    assert _power(x + y) == [a + b for a, b in zip(_power(x), _power(y))]
    assert _power(-x) == [-a for a in _power(x)]


@pytest.mark.parametrize("n", (15, 1260))
def test_products_across_slot_widths(n):
    """Dense coordinates of equal size, both signs, whose product bound
    crosses several byte boundaries of the slot width."""
    ctx = field_context(n)
    d = ctx.degree
    for bits in range(18, 35):
        top = 2 ** bits - 1
        for sign in (1, -1):
            x = FieldElement(ctx, [top if i % 3 else sign * top for i in range(d)])
            y = FieldElement(ctx, [-sign * top if i % 2 else top for i in range(d)])
            assert _exact(x * y) == _exact(power_product(x, y)), (bits, sign)


@pytest.mark.parametrize("n", GALOIS_ORACLE_CONDUCTORS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_galois_action_matches_the_power_basis(n, data):
    ctx = field_context(n)
    x = ctx.from_coeffs(data.draw(_coords(n)))
    j = data.draw(st.sampled_from([j for j in range(1, n) if math.gcd(j, n) == 1]))
    assert _exact(ctx.galois(j, x)) == _exact(power_galois(ctx, j, x))


@pytest.mark.parametrize("n", (1260, 1584))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_galois_action_at_high_degree(n, data):
    """A ring map that sends 2cos(2 pi k/N) to 2cos(2 pi jk/N)."""
    ctx = field_context(n)
    x, y = (ctx.from_coeffs(data.draw(_coords(n))) for _ in range(2))
    j = data.draw(st.sampled_from([j for j in range(1, n) if math.gcd(j, n) == 1]))
    k = data.draw(st.integers(0, n))
    assert ctx.galois(j, power_cos_element(ctx, k, n)) == power_cos_element(ctx, j * k, n)
    assert ctx.galois(j, x * y) == ctx.galois(j, x) * ctx.galois(j, y)
    assert ctx.galois(j, x + y) == ctx.galois(j, x) + ctx.galois(j, y)


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_invert_matches_the_power_basis(n, data):
    ctx = field_context(n)
    x = data.draw(_structured(n) if ctx.degree > 24 else
                  _coords(n).map(ctx.from_coeffs))
    if x.is_zero():
        with pytest.raises(DivisionByZero):
            x.invert()
    else:
        assert _exact(x.invert()) == _exact(power_invert(x))


@pytest.mark.parametrize("n", CONDUCTORS)
def test_cos_element_matches_the_power_basis_walk(n):
    ctx = field_context(n)
    walk = power_cosines(ctx, n // 2)
    for m in [m for m in range(1, n + 1) if n % m == 0]:
        for k in sorted({0, 1, m // 3, m // 2, m - 1, m, m + 1}):
            j = k % m * (n // m)
            assert ctx.cos_element(k, m).power_num == walk[min(j, n - j)]
    assert ctx.generator.power_num == walk[1]
    assert ctx.cos_element(n // 2, n).power_num == walk[n // 2]


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_image_mod_p_is_the_ring_map_of_c(n, data):
    """The images of the basis (FieldContext.modular_image) send an element
    where c -> c_p sends its power-basis coordinates."""
    ctx = field_context(n)
    p, images = ctx.modular_image(0)
    x, y = (ctx.from_coeffs(data.draw(_coords(n))) for _ in range(2))

    def image(z):
        return linalg._images_mod([[[z]]], p, images)[0][0][0]

    assert image(x) == power_image(ctx, 0, x)
    assert image(x * y) == image(x) * image(y) % p
    assert image(x + y) == (image(x) + image(y)) % p
