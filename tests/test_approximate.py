"""FieldElement.approximate (float(x)) against mpmath: the nearest float to
(num_0 + sum num_k 2cos(2 pi k/N)) / den evaluated at 600 bits, on random
elements up to degree 240, coordinates near 10^40, denominators and
near-cancelling values; the integer 2cos(2 pi/N) behind it, within one
unit, up to 40000 bits; and that a rational builds no cosine table."""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from coxrep.cyclotomic import FieldContext, FieldElement, _two_cos_fixed, field_context

# degrees 2, 3, 4, 24, 48 and 240
CONDUCTORS = [5, 7, 12, 105, 280, 1232]
PRECISION = 600


@lru_cache(maxsize=None)
def cosines(n: int) -> tuple:
    with mpmath.workprec(PRECISION):
        return (mpmath.mpf(1),) + tuple(2 * mpmath.cos(2 * mpmath.pi * k / n)
                                        for k in range(1, field_context(n).degree))


def oracle(x: FieldElement) -> float:
    with mpmath.workprec(PRECISION):
        value = mpmath.fsum(v * b for v, b in zip(x.num, cosines(x.ctx.N)) if v)
        return float(value / x.den)


@st.composite
def elements(draw):
    """A dense or sparse element with coordinates of 4, 64 or 133 bits
    (10^40) over a denominator, times (c - 2)^k, whose value is about
    (2 pi/N)^(2k) while its coordinates grow."""
    ctx = field_context(draw(st.sampled_from(CONDUCTORS)))
    rng = draw(st.randoms(use_true_random=False))
    top = 2 ** draw(st.sampled_from([4, 64, 133]))
    dense = draw(st.booleans())
    num = [rng.randint(-top, top) if dense or rng.random() < 0.05 else 0
           for _ in range(ctx.degree)]
    num[0] = num[0] or 1
    den = draw(st.integers(1, 10 ** 12))
    return FieldElement(ctx, num, den) * (ctx.generator - 2) ** draw(st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(elements())
def test_float_is_the_nearest_float_to_the_mpmath_value(x):
    assert float(x) == oracle(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20014), st.sampled_from([1, 53, 160, 700, 3000]))
def test_fixed_point_cosine_is_within_one_unit(n, bits):
    with mpmath.workprec(bits + 100):
        exact = mpmath.ldexp(2 * mpmath.cos(2 * mpmath.pi / n), bits)
        assert abs(_two_cos_fixed(n, bits) - exact) < 1


@pytest.mark.parametrize("bits", [14000, 40000])
@pytest.mark.parametrize("n", [5, 1260, 20014])
def test_fixed_point_cosine_is_within_one_unit_at_high_precision(n, bits):
    # 68 to 138 halvings of the angle, each doubled back
    with mpmath.workprec(bits + 100):
        exact = mpmath.ldexp(2 * mpmath.cos(2 * mpmath.pi / n), bits)
        assert abs(_two_cos_fixed(n, bits) - exact) < 1


def test_float_is_rounded_once():
    """Rounding to 64 bits and then to 53 put this value one ulp off the
    nearest float, 18.788853733208736."""
    x = field_context(105).from_coeffs(
        [-8, -155, 205, 1109, -1178, -2827, 2674, 4584, -3066, -6506, 1981, 7412,
         -753, -5796, 167, 2944, -20, -952, 1, 189, 0, -21, 0, 1])
    assert float(x) == 18.788853733208736 == oracle(x)


def test_float_beyond_the_float_range_is_infinite():
    ctx = field_context(280)
    c = ctx.generator
    assert float(10 ** 400 * (3 + c)) == math.inf
    assert float(-(10 ** 400) * (3 + c ** 5)) == -math.inf
    assert float(ctx.from_rational(-(10 ** 400))) == -math.inf
    assert float((3 + c) / 10 ** 400) == 0.0


def test_float_goes_through_approximate_for_every_element(monkeypatch):
    monkeypatch.setattr(FieldElement, "approximate", lambda self: 0.25)
    ctx = field_context(5)
    assert float(ctx.generator) == float(ctx.from_rational(3)) == 0.25


def test_a_rational_builds_no_cosine_table(monkeypatch):
    def cosines(self, bits):
        raise AssertionError("cosine table built for a rational")

    monkeypatch.setattr(FieldContext, "_cosines", cosines)
    for n in (280, 10006):
        ctx = FieldContext(n)
        for q in (Fraction(7, 3), Fraction(-1, 10 ** 30), Fraction(0), Fraction(10 ** 300, 7)):
            assert float(ctx.from_rational(q)) == float(q)
        assert ctx._approx_cache == {}
