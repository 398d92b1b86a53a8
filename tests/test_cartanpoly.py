"""Order-polynomial family and pair classification."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from coxrep.cartanpoly import (
    OrderClass,
    classify_pair,
    order_poly,
    order_poly_full,
    order_poly_roots,
)
from coxrep.cyclotomic import ContextMismatch, FieldElement, euler_phi, field_context

from oracles import evaluate, order_table, poly_divmod


def expand_roots_oracle(n: int, primitive_only: bool, bits: int = 200) -> list[int]:
    """Independent oracle: expand prod(X - 4cos^2(k pi/n)) in high precision."""
    with mpmath.workprec(bits):
        ks = [k for k in range(1, n // 2 + 1)
              if (math.gcd(k, n) == 1 or not primitive_only)]
        coeffs = [mpmath.mpf(1)]
        for k in ks:
            r = 4 * mpmath.cos(mpmath.pi * k / n) ** 2
            nxt = [mpmath.mpf(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c * (-r)
                nxt[i + 1] += c
            coeffs = nxt
        out = []
        for c in coeffs:
            v = int(mpmath.nint(c))
            assert abs(c - v) < mpmath.mpf(10) ** -30
            out.append(v)
    return out


def test_known_small_polys():
    assert [int(c) for c in order_poly(5).coeffs] == [1, -3, 1]
    assert [int(c) for c in order_poly_full(5).coeffs] == [1, -3, 1]
    assert [int(c) for c in order_poly(3).coeffs] == [-1, 1]
    assert [int(c) for c in order_poly(4).coeffs] == [-2, 1]
    assert [int(c) for c in order_poly_full(2).coeffs] == [0, 1]
    assert [int(c) for c in order_poly_full(6).coeffs] == [0, 3, -4, 1]


@pytest.mark.parametrize("n", range(2, 31))
def test_polys_match_float_expansion(n):
    assert [int(c) for c in order_poly(n).coeffs] == expand_roots_oracle(n, True)
    assert [int(c) for c in order_poly_full(n).coeffs] == expand_roots_oracle(n, False)


@pytest.mark.parametrize("n", range(3, 31))
def test_divisibility_and_degree(n):
    quotient, remainder = poly_divmod(order_poly_full(n), order_poly(n))
    assert remainder.is_zero()
    assert order_poly(n).degree == euler_phi(n) // 2
    assert order_poly_full(n).degree == n // 2


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12, 15, 30])
def test_roots_annihilate_exactly(n):
    ctx = field_context(n)
    roots = order_poly_roots(ctx, n)
    assert len(roots) == order_poly(n).degree
    for root in roots:
        assert evaluate(order_poly(n), root).is_zero()


def test_root_order_is_ascending_k():
    ctx = field_context(5)
    roots = order_poly_roots(ctx, 5)
    assert abs(float(roots[0]) - (3 + math.sqrt(5)) / 2) < 1e-9
    assert abs(float(roots[1]) - (3 - math.sqrt(5)) / 2) < 1e-9
    assert order_poly_roots(field_context(3), 3) == [field_context(3).one]
    assert order_poly_roots(field_context(4), 4)[0] == 2


def test_classify_basic():
    ctx = field_context(12)
    zero, one, two = ctx.zero, ctx.one, ctx.from_rational(2)
    assert classify_pair(zero, zero) == OrderClass.commuting()
    assert classify_pair(two, two) == OrderClass.unipotent()
    assert classify_pair(one, one) == OrderClass.finite(3)
    assert classify_pair(two, one) == OrderClass.finite(4)
    assert classify_pair(ctx.from_rational(3), one) == OrderClass.finite(6)
    # one-sided zero is not a commuting pair and not finite
    assert classify_pair(zero, one) == OrderClass.indeterminate()
    # 5 is not a coefficient value of any finite order
    assert classify_pair(ctx.from_rational(5), one) == OrderClass.indeterminate()
    assert classify_pair(ctx.from_rational(Fraction(1, 2)), one) == OrderClass.indeterminate()


@pytest.mark.parametrize("n", range(3, 13))
def test_classify_every_root(n):
    ctx = field_context(n)
    one = ctx.one
    for root in order_poly_roots(ctx, n):
        assert classify_pair(root, one) == OrderClass.finite(n)


def test_classify_respects_max_order():
    ctx = field_context(31)
    root = order_poly_roots(ctx, 31)[0]
    assert classify_pair(root, ctx.one, max_order=12) == OrderClass.indeterminate()
    assert classify_pair(root, ctx.one, max_order=31) == OrderClass.finite(31)


def test_classify_every_root_of_every_order_dividing_504():
    # large conductors once fell outside the float shortlist and came back
    # indeterminate; the lookup is exact at every divisor
    ctx = field_context(504)
    one = ctx.one
    for n in range(3, 505):
        if 504 % n == 0:
            for root in order_poly_roots(ctx, n):
                assert classify_pair(root, one) == OrderClass.finite(n)


def test_classify_odd_order_complement_doubles_the_order():
    # 4 - 4cos^2(k pi/5) = 4cos^2((2k+5) pi/10): order 10 lives in Q(zeta_5)+
    ctx = field_context(5)
    for root in order_poly_roots(ctx, 5):
        assert classify_pair(4 - root, ctx.one) == OrderClass.finite(10)


def test_classify_never_converts_to_float(monkeypatch):
    from coxrep.cyclotomic import FieldElement

    def refuse(self):
        raise AssertionError("float() on the decision path")

    monkeypatch.setattr(FieldElement, "__float__", refuse)
    ctx = field_context(84)
    for n in (3, 4, 6, 7, 12, 14, 21, 42, 84):
        for root in order_poly_roots(ctx, n):
            assert classify_pair(root, ctx.one) == OrderClass.finite(n)
    assert classify_pair(ctx.from_rational(5), ctx.one) == OrderClass.indeterminate()
    assert classify_pair(ctx.zero, ctx.one) == OrderClass.indeterminate()


def test_order_class_invariants():
    with pytest.raises(ValueError):
        OrderClass("finite", 2)
    with pytest.raises(ValueError):
        OrderClass("commuting", 4)
    assert OrderClass.commuting().finite_order == 2
    assert OrderClass.finite(7).finite_order == 7
    assert OrderClass.unipotent().finite_order is None


def _expected(table, coefficient):
    """The class the old table gave a coefficient C = c_rs * 1."""
    if coefficient in table:
        return OrderClass.finite(table[coefficient])
    return OrderClass.unipotent() if coefficient == 4 else OrderClass.indeterminate()


@pytest.mark.parametrize("n", range(1, 401))
def test_classify_matches_the_order_table(n):
    ctx = field_context(n)
    table = order_table(ctx)
    for coefficient, order in table.items():
        assert classify_pair(coefficient, ctx.one) == OrderClass.finite(order), coefficient
    rng = random.Random(n)
    b_1 = ctx.cos_element(1, n)
    samples = [ctx.zero, ctx.from_rational(4), ctx.from_rational(Fraction(1, 2)),
               2 + b_1 / 2, 2 * b_1, 2 + 2 * b_1, 2 - 2 * b_1]
    samples += [FieldElement(ctx, [rng.randint(-2, 2) for _ in range(ctx.degree)])
                for _ in range(20)]
    for coefficient in samples:
        assert classify_pair(coefficient, ctx.one) == _expected(table, coefficient), coefficient


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 30, 105, 280, 281])
def test_cos_index_inverts_cos_element(n):
    ctx = field_context(n)
    cosines = [ctx.cos_element(j, n) for j in range(n // 2 + 1)]
    for j, x in enumerate(cosines):
        assert ctx.cos_index(x) == j
    # 1 = 2cos(2 pi (N/6)/N) is a cosine only when 6 | N; 1 is never b_0 = 2
    assert ctx.cos_index(ctx.one) == (n // 6 if n % 6 == 0 else None)
    assert ctx.cos_index(ctx.from_rational(3)) is None
    assert ctx.cos_index(ctx.from_rational(Fraction(1, 2))) is None
    b_1, rng = cosines[1] if n > 1 else ctx.one, random.Random(n)
    samples = [2 * b_1, b_1 + 1, b_1 / 2, b_1 * b_1, b_1 - 2, -b_1]
    samples += [FieldElement(ctx, [rng.randint(-1, 1) for _ in range(ctx.degree)])
                for _ in range(30)]
    for x in samples:
        assert ctx.cos_index(x) == next((j for j, c in enumerate(cosines) if c == x), None), x
    with pytest.raises(ContextMismatch):
        ctx.cos_index(field_context(n + 1).one)


def test_classify_two_minus_b_1_at_conductor_5_as_order_10():
    ctx = field_context(5)
    assert classify_pair(2 - ctx.cos_element(1, 5), ctx.one) == OrderClass.finite(10)
